package ringsig

// Hash-to-point memoisation. Hp(P) depends only on the public key bytes,
// and verification workloads resolve the same keys over and over: every
// member of every ring in a batch needs its Hp, rings drawn from one ledger
// overlap heavily, and a node's key registry is known ahead of time. The
// memo turns all but the first resolution of a key into a lock-cheap map
// read.

import (
	"crypto/elliptic"
	"crypto/sha256"
	"math/big"
	"runtime"
	"sync"
)

// hpKey is a compressed SEC1 encoding — 33 fixed bytes, comparable, so map
// lookups need no per-call allocation.
type hpKey [33]byte

func makeHpKey(p Point) hpKey {
	var k hpKey
	k[0] = 2 | byte(p.Y.Bit(0))
	p.X.FillBytes(k[1:])
	return k
}

// HpCache memoises hashToPoint by public key bytes. Safe for concurrent
// use. A nil *HpCache is valid and simply computes every request — callers
// thread one through when they want amortisation and pass nil when they
// don't. Lifetime is the owner's choice: VerifyBatch installs a fresh memo
// per batch when the engine doesn't own a longer-lived one; a node owning
// the key registry keeps a process-lifetime cache warmed by Precompute.
// Entries are immutable once stored, so there is no invalidation to manage
// — only growth, bounded by the number of distinct keys the owner feeds it.
type HpCache struct {
	mu sync.RWMutex
	m  map[hpKey]Point
}

// NewHpCache returns an empty memo.
func NewHpCache() *HpCache {
	return &HpCache{m: make(map[hpKey]Point, 64)}
}

// hashPoint returns Hp(p), memoised. The hit path is one RLock-ed map read.
//
//tmlint:hotpath
func (c *HpCache) hashPoint(p Point) Point {
	if c == nil {
		//lint:ignore hotalloc cache-less fallback resolves Hp from scratch; hot callers always thread a memo
		return hashToPoint(p)
	}
	k := makeHpKey(p)
	c.mu.RLock()
	v, ok := c.m[k]
	c.mu.RUnlock()
	if ok {
		return v
	}
	//lint:ignore hotalloc first resolution of a key computes and stores; every later lookup is the allocation-free hit path above
	return c.fill(k, p)
}

func (c *HpCache) fill(k hpKey, p Point) Point {
	s := new(pointSlot)
	s.set(hashToPoint(p))
	v := s.point()
	c.mu.Lock()
	c.m[k] = v
	c.mu.Unlock()
	return v
}

// Precompute warms the memo for a known key population (e.g. a node's key
// registry), so later verifications never pay the hash-to-point search.
// Each distinct, non-zero key the memo lacks is hashed once, on up to
// GOMAXPROCS workers (inline when only one is missing), and the results go
// in under one write lock: the memo ends up exactly as a sequential pass
// would leave it. The new entries share one exact-width slab (see
// pointSlot), and a single miss that fill stores gets a slot of its own.
// Concurrent hashPoint readers stay safe throughout; one that fills a key
// first stores the same point. On a nil memo it does nothing.
func (c *HpCache) Precompute(keys []Point) {
	if c == nil {
		return
	}
	var ks []hpKey
	var pts []Point
	queued := make(map[hpKey]struct{}, len(keys))
	c.mu.RLock()
	for _, p := range keys {
		if p.IsZero() {
			continue
		}
		k := makeHpKey(p)
		if _, ok := c.m[k]; ok {
			continue
		}
		if _, ok := queued[k]; ok {
			continue
		}
		queued[k] = struct{}{}
		ks = append(ks, k)
		pts = append(pts, p)
	}
	c.mu.RUnlock()

	slab := make([]pointSlot, len(pts))
	parallelFor(runtime.GOMAXPROCS(0), len(pts), func(i int) {
		slab[i].set(hashToPoint(pts[i]))
	})
	c.mu.Lock()
	for i, k := range ks {
		c.m[k] = slab[i].point()
	}
	c.mu.Unlock()
}

// Len reports the number of memoised keys.
func (c *HpCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// hashToPoint maps a public key to a curve point with unknown discrete log
// relative to G, via iterated hash-and-increment on the x-coordinate. The
// square root runs through elliptic.UnmarshalCompressed, which on
// assembly-backed platforms is several times cheaper than a big.Int
// ModSqrt; the even-y prefix makes it also pick the canonical root (the
// differential tests compare it against that ModSqrt computation).
func hashToPoint(p Point) Point {
	seed := sha256.Sum256(append([]byte(hpDomain), p.Bytes()...))
	x := new(big.Int).SetBytes(seed[:])
	x.Mod(x, curveP)
	one := big.NewInt(1)
	var buf [33]byte
	buf[0] = 2 // request the even root: the canonical choice
	for i := 0; i < 1000; i++ {
		x.FillBytes(buf[1:])
		if px, py := elliptic.UnmarshalCompressed(Curve, buf[:]); px != nil {
			return Point{X: px, Y: py}
		}
		x.Add(x, one)
		if x.Cmp(curveP) >= 0 {
			x.Sub(x, curveP)
		}
	}
	// Unreachable in practice: each x has ~1/2 chance of being on curve.
	panic("ringsig: hash-to-point failed after 1000 attempts")
}

// hpDomain tags the hash-to-point transcript. v2: the root choice became
// canonical (always the even y), enabling the compressed-point fast path;
// v1 kept whichever root ModSqrt produced. Nothing persists v1 signatures —
// the scheme's keys, images and signatures all live within one process
// generation — so the tag bump only marks the break explicitly.
const hpDomain = "tokenmagic/hp/v2"
