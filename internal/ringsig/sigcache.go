package ringsig

// Verified-transcript cache. A node verifies every signature at least
// twice: once at submission admission and again when the containing block
// is validated at mine time. The transcript key binds every byte the
// decision depends on — message, ring, responses, initial challenge, key
// image — so a hit proves this exact verification already succeeded and the
// whole challenge chain can be skipped. Only successful verifications are
// recorded; a reject is never cached (rejects are rare, and callers may
// retry with a corrected ring).

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
)

// SigCache remembers transcripts that verified, bounded by a two-generation
// rotation: inserts land in the current generation, lookups consult both,
// and when the current generation fills, it becomes the previous one and a
// fresh map starts. Eviction is therefore approximately FIFO at generation
// granularity with memory bounded by ~capacity entries, the scheme Bitcoin
// Core's signature cache popularised.
type SigCache struct {
	mu   sync.Mutex
	half int
	cur  map[[32]byte]struct{}
	prev map[[32]byte]struct{}
}

// NewSigCache returns a cache holding about capacity verified transcripts.
// Nothing is allocated until the first Record, so a node that never
// verifies pays only for the struct.
func NewSigCache(capacity int) *SigCache {
	if capacity < 2 {
		capacity = 2
	}
	return &SigCache{half: capacity / 2}
}

// Seen reports whether the transcript key was recorded by a previous
// successful verification.
func (c *SigCache) Seen(key [32]byte) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.cur[key]; ok {
		return true
	}
	_, ok := c.prev[key]
	return ok
}

// Record remembers a transcript that verified successfully.
func (c *SigCache) Record(key [32]byte) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur == nil || len(c.cur) >= c.half {
		c.prev = c.cur // nil before the first Record, so prev stays nil
		c.cur = make(map[[32]byte]struct{}, c.half)
	}
	c.cur[key] = struct{}{}
}

// Len reports the number of remembered transcripts across both generations.
func (c *SigCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.cur) + len(c.prev)
}

// transcriptKey hashes the full verification transcript. Every scalar and
// coordinate uses a fixed 32-byte encoding and the two variable-length
// dimensions (message bytes, ring size) are length-framed, so distinct
// transcripts cannot collide by concatenation — no field's byte width
// depends on its value. The caller guarantees structural validity before
// the cache is consulted: verifyOne rejects out-of-range C0 (and nil or
// oversized fields) before calling here, so FillBytes(32) cannot panic.
// v1 encoded C0 variable-width with a length frame; v2 makes it fixed-width
// like every other scalar, and bumps the domain tag so v1 and v2 keys live
// in disjoint spaces (cache-internal only — keys never leave the process).
func transcriptKey(sig *Signature, ring []Point, msg []byte) [32]byte {
	h := sha256.New()
	var n8 [8]byte
	var w [32]byte
	hashWrite(h, []byte("tokenmagic/sigcache/v2"))
	binary.LittleEndian.PutUint64(n8[:], uint64(len(msg)))
	hashWrite(h, n8[:], msg)
	binary.LittleEndian.PutUint64(n8[:], uint64(len(ring)))
	hashWrite(h, n8[:])
	for _, p := range ring {
		p.X.FillBytes(w[:])
		hashWrite(h, w[:])
		p.Y.FillBytes(w[:])
		hashWrite(h, w[:])
	}
	sig.C0.FillBytes(w[:])
	hashWrite(h, w[:])
	for _, s := range sig.S {
		s.FillBytes(w[:])
		hashWrite(h, w[:])
	}
	sig.Image.X.FillBytes(w[:])
	hashWrite(h, w[:])
	sig.Image.Y.FillBytes(w[:])
	hashWrite(h, w[:])
	var key [32]byte
	h.Sum(key[:0])
	return key
}
