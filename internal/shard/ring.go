package shard

import "sort"

// Ring is the consistent-hash key ring: each shard owns vnodesPerShard
// seeded points on a 64-bit circle, and a key belongs to the shard owning
// the first point at or clockwise of the key's hash. The ring is static for
// a run — key→shard is pinned at construction — while shard→node placement
// is the dynamic layer migrations rewrite. Virtual nodes keep the arcs
// balanced; seeding them from the run seed makes the key partition a pure
// function of (seed, shards, vnodes).
type Ring struct {
	points []ringPoint // sorted by hash point
	shards int
}

type ringPoint struct {
	at    uint64
	shard int
}

// splitmix64 scrambles one 64-bit value; adjacent inputs map to
// decorrelated points, which is what spreads each shard's vnodes around the
// circle instead of clustering them.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fnv64 is FNV-1a over the key bytes.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// NewRing builds the ring for shards×vnodes seeded points.
func NewRing(seed int64, shards, vnodes int) *Ring {
	r := &Ring{shards: shards}
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			x := splitmix64(uint64(seed)*0x100000001b3 + uint64(s)<<20 + uint64(v))
			r.points = append(r.points, ringPoint{at: x, shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].at != r.points[j].at {
			return r.points[i].at < r.points[j].at
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// Shards returns the shard count.
func (r *Ring) Shards() int { return r.shards }

// KeyShard maps a key to its owning shard.
func (r *Ring) KeyShard(key string) int {
	h := fnv64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].at >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// KeySlot maps a key to its preferred replica slot within the owning
// shard's group — the read-affinity spread that keeps a hot shard's reads
// from all landing on one replica.
func (r *Ring) KeySlot(key string, replicas int) int {
	if replicas <= 1 {
		return 0
	}
	return int(splitmix64(fnv64(key)) % uint64(replicas))
}
