package serve

import (
	"container/list"
	"context"
	"crypto/sha256"
	"fmt"
	"io"

	"spatial/api"
	"spatial/internal/core"
)

// cacheKey is the content address of one compiled program: a SHA-256
// digest over the source text and every compile-time parameter that can
// change the resulting circuit or its default execution environment
// (optimization level, explicit pass toggles, normalized simulator
// configuration). Run-time parameters — entry, arguments, deadline — are
// deliberately excluded: they select what to run, not what to build.
type cacheKey [sha256.Size]byte

// programKey computes a wire program's content address. The simulator
// configuration is converted to its internal form and normalized first,
// so two requests whose configs differ only in defaulted zero fields
// (e.g. MaxCycles 0 vs 200000000) share a compilation, while genuinely
// different configs get distinct keys. This key addresses the compile
// cache; the coarser api.Program.Key, computed on the raw wire form,
// routes between shards.
func programKey(p api.Program) (cacheKey, error) {
	level, err := levelOf(p.Level)
	if err != nil {
		return cacheKey{}, err
	}
	sim, err := simOf(p.Sim)
	if err != nil {
		return cacheKey{}, err
	}
	if err := sim.Validate(); err != nil {
		return cacheKey{}, err
	}
	backend, err := core.ParseBackend(p.Backend)
	if err != nil {
		return cacheKey{}, err
	}
	h := sha256.New()
	// The backend keys via its normalized name, so "" and "interp"
	// collapse onto one entry while "compiled" gets its own — a cached
	// Compiled lazily builds the selected engine's structures, and its
	// Backend field is immutable after CompileSource. The deprecated
	// Partitions field does not key.
	fmt.Fprintf(h, "level=%d\x00backend=%s\x00", level, backend)
	if ps := passesOf(p.Passes); ps != nil {
		fmt.Fprintf(h, "passes=%#v\x00", *ps)
	}
	fmt.Fprintf(h, "sim=%#v\x00src=%d\x00", sim.Normalized(), len(p.Source))
	io.WriteString(h, p.Source)
	var k cacheKey
	h.Sum(k[:0])
	return k, nil
}

// key computes the request's content address (compile-time fields only).
func (r Request) key() (cacheKey, error) { return programKey(r.Program) }

// cacheEntry is one cache slot. ready is closed when the leader finishes
// compiling; cp/err must only be read after ready is closed. elem is the
// entry's position in the LRU list once the compile has succeeded (nil
// while in flight, so an in-flight entry can never be evicted).
type cacheEntry struct {
	key   cacheKey
	ready chan struct{}
	cp    *core.Compiled
	err   error
	elem  *list.Element
}

// compileCache is the bounded, content-addressed, single-flight compile
// cache. Lookups for a key being compiled join the in-flight compilation
// instead of starting another; successful results enter a strict LRU
// bounded at max entries. Failed compilations are not cached — the next
// request retries — but every waiter of the failed flight receives the
// same error.
type compileCache struct {
	max     int
	entries map[cacheKey]*cacheEntry
	lru     *list.List // front = most recently used; values are *cacheEntry

	hits      uint64
	misses    uint64
	shared    uint64 // lookups that joined an in-flight compile
	evictions uint64
}

func newCompileCache(max int) *compileCache {
	return &compileCache{max: max, entries: make(map[cacheKey]*cacheEntry), lru: list.New()}
}

// lookup returns the entry for key and whether the caller is the leader
// responsible for compiling it (true exactly once per flight). The
// caller must hold e.mu of the owning engine.
func (c *compileCache) lookup(key cacheKey) (ent *cacheEntry, leader bool) {
	if ent, ok := c.entries[key]; ok {
		if ent.elem != nil {
			c.lru.MoveToFront(ent.elem)
			c.hits++
		} else {
			c.shared++
		}
		return ent, false
	}
	ent = &cacheEntry{key: key, ready: make(chan struct{})}
	c.entries[key] = ent
	c.misses++
	return ent, true
}

// finish publishes the leader's result: successes enter the LRU (evicting
// the coldest ready entries past max), failures leave the cache so a
// later identical request recompiles. Must be called with the engine
// mutex held; closing ready releases the waiters.
func (c *compileCache) finish(ent *cacheEntry, cp *core.Compiled, err error) {
	ent.cp, ent.err = cp, err
	if err != nil {
		delete(c.entries, ent.key)
	} else {
		ent.elem = c.lru.PushFront(ent)
		for c.lru.Len() > c.max {
			back := c.lru.Back()
			old := back.Value.(*cacheEntry)
			c.lru.Remove(back)
			delete(c.entries, old.key)
			c.evictions++
		}
	}
	close(ent.ready)
}

// wait blocks until the entry's compile finishes or ctx is done.
func (ent *cacheEntry) wait(ctx context.Context) (*core.Compiled, error) {
	select {
	case <-ent.ready:
		return ent.cp, ent.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
