package aggd

import (
	"fmt"
	"testing"
)

// TestRouterPinned locks the exact consistent-hash placements. The router
// hash (FNV-1a 64 over endpoint+"#i" ring points and node+rank keys) is a
// wire-compatibility surface: a change that re-homes every stream would bump
// every agent epoch across a fleet at once, so any edit that moves these
// placements must be treated as a breaking protocol change, not a refactor.
func TestRouterPinned(t *testing.T) {
	r, err := NewRouter([]string{"http://leaf-0:9100", "http://leaf-1:9100", "http://leaf-2:9100"})
	if err != nil {
		t.Fatal(err)
	}
	pinned := []struct {
		node string
		rank int
		want string
	}{
		{"node-000", 0, "http://leaf-2:9100"},
		{"node-000", 1, "http://leaf-0:9100"},
		{"node-001", 0, "http://leaf-2:9100"},
		{"node-001", 1, "http://leaf-1:9100"},
		{"node-002", 0, "http://leaf-2:9100"},
		{"node-002", 1, "http://leaf-2:9100"},
		{"node-003", 0, "http://leaf-1:9100"},
		{"node-003", 1, "http://leaf-0:9100"},
	}
	for _, p := range pinned {
		if got := r.Pick(p.node, p.rank); got != p.want {
			t.Errorf("Pick(%q, %d) = %q, want pinned %q — the router hash moved; "+
				"this is a wire-compatibility break", p.node, p.rank, got, p.want)
		}
	}
	wantOrder := []string{"http://leaf-2:9100", "http://leaf-1:9100", "http://leaf-0:9100"}
	got := r.Order("node-000", 0)
	for i := range wantOrder {
		if got[i] != wantOrder[i] {
			t.Fatalf("Order(node-000, 0) = %q, want pinned %q", got, wantOrder)
		}
	}
}

func TestRouterRejects(t *testing.T) {
	if _, err := NewRouter(nil); err == nil {
		t.Fatal("empty endpoint list accepted")
	}
	if _, err := NewRouter([]string{"a", "b", "a"}); err == nil {
		t.Fatal("duplicate endpoint accepted (it would double that leaf's share)")
	}
}

// routerKeys is a synthetic fleet: 125 nodes x 8 ranks.
func routerKeys() []struct {
	node string
	rank int
} {
	keys := make([]struct {
		node string
		rank int
	}, 0, 1000)
	for n := 0; n < 125; n++ {
		for rank := 0; rank < 8; rank++ {
			keys = append(keys, struct {
				node string
				rank int
			}{fmt.Sprintf("n%03d", n), rank})
		}
	}
	return keys
}

// TestRouterChurn grows a 4-leaf tier to 5 and checks the consistent-hash
// contract: roughly 1/N of the streams move (those whose ring successor is
// now the new leaf), everything else stays put, and every stream that moved
// moved TO the new endpoint — removing or adding a leaf never reshuffles
// traffic between the survivors.
func TestRouterChurn(t *testing.T) {
	four := []string{"http://l0", "http://l1", "http://l2", "http://l3"}
	five := append(append([]string(nil), four...), "http://l4")
	r4, err := NewRouter(four)
	if err != nil {
		t.Fatal(err)
	}
	r5, err := NewRouter(five)
	if err != nil {
		t.Fatal(err)
	}
	keys := routerKeys()
	moved := 0
	for _, k := range keys {
		before, after := r4.Pick(k.node, k.rank), r5.Pick(k.node, k.rank)
		if before == after {
			continue
		}
		moved++
		if after != "http://l4" {
			t.Fatalf("stream (%s, %d) moved %q -> %q: growth must only move "+
				"streams onto the new leaf", k.node, k.rank, before, after)
		}
	}
	// Expectation is 1/5 of the keys; 64 vnodes per endpoint lands within a
	// few points of it. The bounds are loose enough to be timeless and tight
	// enough to catch a broken ring (0% or ~80% both fail).
	frac := float64(moved) / float64(len(keys))
	if frac < 0.08 || frac > 0.35 {
		t.Fatalf("adding a 5th leaf moved %.1f%% of streams, want ~20%%", 100*frac)
	}
}

// TestRouterBalance checks the vnode count spreads a fleet acceptably
// evenly: with 3 leaves and 1000 streams each leaf owns at least 20%.
func TestRouterBalance(t *testing.T) {
	eps := []string{"http://leaf-0:9100", "http://leaf-1:9100", "http://leaf-2:9100"}
	r, err := NewRouter(eps)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	keys := routerKeys()
	for _, k := range keys {
		counts[r.Pick(k.node, k.rank)]++
	}
	for _, ep := range eps {
		if frac := float64(counts[ep]) / float64(len(keys)); frac < 0.20 {
			t.Fatalf("leaf %s owns only %.1f%% of 1000 streams: %v", ep, 100*frac, counts)
		}
	}
}

// TestRouterOrderProperties checks Order's failover contract for every
// stream: the owner leads, every endpoint appears exactly once, and the
// list is stable across calls.
func TestRouterOrderProperties(t *testing.T) {
	eps := []string{"http://l0", "http://l1", "http://l2", "http://l3"}
	r, err := NewRouter(eps)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range routerKeys() {
		order := r.Order(k.node, k.rank)
		if len(order) != len(eps) {
			t.Fatalf("Order(%s, %d) has %d entries, want %d", k.node, k.rank, len(order), len(eps))
		}
		if order[0] != r.Pick(k.node, k.rank) {
			t.Fatalf("Order(%s, %d) leads with %q, Pick says %q", k.node, k.rank, order[0], r.Pick(k.node, k.rank))
		}
		seen := map[string]bool{}
		for _, ep := range order {
			if seen[ep] {
				t.Fatalf("Order(%s, %d) repeats %q: %q", k.node, k.rank, ep, order)
			}
			seen[ep] = true
		}
	}
}

// Pick returns the endpoint owning the (node, rank) stream: the first
// ring point clockwise from the key's hash. It is the reference the tests
// hold Order's first entry to.
func (r *Router) Pick(node string, rank int) string {
	return r.endpoints[r.points[r.succ(keyHash(node, rank))].idx]
}
