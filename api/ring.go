package api

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
)

// Ring is a consistent-hash ring over daemon addresses: it assigns every
// program Key to exactly one owner, and adding or removing a node moves
// only ~1/N of the key space. Only clients build it: daemons are
// peer-unaware and serve any program. Clients built from the same peer
// list (order-insensitive) agree on ownership without coordination, so
// each program's compile stays warm in one daemon's cache.
type Ring struct {
	points []ringPoint // sorted by hash
	nodes  []string
}

type ringPoint struct {
	hash uint64
	node string
}

// DefaultReplicas is the number of virtual nodes per peer; enough that
// the largest shard stays within a few percent of the mean.
const DefaultReplicas = 64

// NewRing builds a ring over the given peers with `replicas` virtual
// nodes each (<=0 means DefaultReplicas). Duplicate and empty peers are
// dropped; an empty peer set yields a nil ring, whose Owner returns "".
func NewRing(peers []string, replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	seen := make(map[string]bool, len(peers))
	var nodes []string
	for _, p := range peers {
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		nodes = append(nodes, p)
	}
	if len(nodes) == 0 {
		return nil
	}
	sort.Strings(nodes)
	r := &Ring{nodes: nodes}
	var buf [8]byte
	for _, n := range nodes {
		for i := 0; i < replicas; i++ {
			binary.LittleEndian.PutUint64(buf[:], uint64(i))
			h := sha256.Sum256(append([]byte(n+"\x00"), buf[:]...))
			r.points = append(r.points, ringPoint{hash: binary.BigEndian.Uint64(h[:8]), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Owner returns the peer that owns k: the first virtual node clockwise
// from the key's position. A nil ring owns nothing and returns "".
func (r *Ring) Owner(k Key) string {
	if r == nil || len(r.points) == 0 {
		return ""
	}
	h := binary.BigEndian.Uint64(k[:8])
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

// Owners returns up to n distinct peers in clockwise preference order
// from k's position: the first element is Owner(k), the rest are the
// failover sequence a client should walk when earlier peers are down.
// Every client derives the same sequence from the same peer list, so
// failover traffic for one dead peer concentrates on one survivor
// per key instead of scattering. A nil ring returns nil.
func (r *Ring) Owners(k Key, n int) []string {
	if r == nil || len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := binary.BigEndian.Uint64(k[:8])
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for scanned := 0; scanned < len(r.points) && len(out) < n; scanned++ {
		p := r.points[(i+scanned)%len(r.points)]
		if seen[p.node] {
			continue
		}
		seen[p.node] = true
		out = append(out, p.node)
	}
	return out
}

// Nodes returns the distinct peers on the ring in sorted order.
func (r *Ring) Nodes() []string {
	if r == nil {
		return nil
	}
	return append([]string(nil), r.nodes...)
}
