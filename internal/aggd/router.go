package aggd

import (
	"fmt"
	"sort"
)

// Router assigns (node, rank) streams to aggregator endpoints with a
// consistent hash ring, so a fleet of agents spreads evenly over the leaf
// tier and adding or removing one leaf re-homes only ~1/N of the streams
// (every key whose ring successor changed) instead of reshuffling all of
// them.
//
// The hash is pinned: FNV-1a 64-bit over the endpoint string plus "#i"
// for ring point i (routerVNodes points per endpoint), and over the node
// name plus the rank as 4 little-endian bytes for keys — each finalized
// with the splitmix64 avalanche. The finalizer matters: raw FNV values of
// strings differing in one character are near-affine translations of each
// other, so the vnode sets of sibling leaves ("…leaf-0", "…leaf-1") land
// in correlated ring arcs and one leaf can own most of the fleet. Tree
// assignment must be stable across releases — a rolling upgrade that
// silently re-homed every stream would bump every agent epoch at once —
// so changing any part of this hash is a wire-compatibility break;
// TestRouterPinned locks the exact placements.
type Router struct {
	endpoints []string
	points    []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	idx  int // index into endpoints
}

// routerVNodes is the virtual-node count per endpoint: enough points that
// three leaves split a fleet within a few percent of evenly, few enough
// that building a router stays trivial.
const routerVNodes = 64

// fnv64a hashes data with FNV-1a (64-bit), the repo's pinned router hash.
func fnv64a(h uint64, data []byte) uint64 {
	if h == 0 {
		h = 14695981039346656037 // FNV offset basis
	}
	for _, b := range data {
		h = (h ^ uint64(b)) * 1099511628211 // FNV prime
	}
	return h
}

// mix64 is the splitmix64 finalizer, applied to every ring point and key
// hash before it lands on the ring (see the correlation note on Router).
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// NewRouter builds a ring over the endpoint list. The list order is
// irrelevant to placement (only the endpoint strings hash); duplicates are
// rejected because they would silently double one leaf's share.
func NewRouter(endpoints []string) (*Router, error) {
	if len(endpoints) == 0 {
		return nil, fmt.Errorf("aggd: router needs at least one endpoint")
	}
	seen := make(map[string]bool, len(endpoints))
	r := &Router{
		endpoints: append([]string(nil), endpoints...),
		points:    make([]ringPoint, 0, len(endpoints)*routerVNodes),
	}
	var scratch [8]byte
	for idx, ep := range endpoints {
		if seen[ep] {
			return nil, fmt.Errorf("aggd: duplicate router endpoint %q", ep)
		}
		seen[ep] = true
		base := fnv64a(0, []byte(ep))
		for v := 0; v < routerVNodes; v++ {
			scratch[0] = '#'
			n := 1 + putDecimal(scratch[1:], v)
			r.points = append(r.points, ringPoint{hash: mix64(fnv64a(base, scratch[:n])), idx: idx})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A full 64-bit hash collision across endpoints is vanishingly
		// rare but must still order deterministically.
		return r.points[i].idx < r.points[j].idx
	})
	return r, nil
}

// putDecimal writes v's decimal digits into dst and returns the length.
func putDecimal(dst []byte, v int) int {
	if v == 0 {
		dst[0] = '0'
		return 1
	}
	var tmp [4]byte
	n := 0
	for v > 0 {
		tmp[n] = byte('0' + v%10)
		v /= 10
		n++
	}
	for i := 0; i < n; i++ {
		dst[i] = tmp[n-1-i]
	}
	return n
}

// keyHash hashes a (node, rank) stream key: node bytes, then the rank as
// 4 little-endian bytes.
func keyHash(node string, rank int) uint64 {
	h := fnv64a(0, []byte(node))
	var b [4]byte
	v := uint32(int32(rank))
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	return mix64(fnv64a(h, b[:]))
}

// succ returns the index of the first ring point at or after h, wrapping.
func (r *Router) succ(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// Order returns every endpoint in the stream's failover order: the owner
// first, then each further endpoint in the order its first ring point
// appears walking clockwise. Agents use it as their health-checked
// endpoint list, so streams that share an owner still spread their
// failover load across the surviving siblings.
func (r *Router) Order(node string, rank int) []string {
	out := make([]string, 0, len(r.endpoints))
	taken := make([]bool, len(r.endpoints))
	start := r.succ(keyHash(node, rank))
	for i := 0; i < len(r.points) && len(out) < len(r.endpoints); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !taken[p.idx] {
			taken[p.idx] = true
			out = append(out, r.endpoints[p.idx])
		}
	}
	return out
}
