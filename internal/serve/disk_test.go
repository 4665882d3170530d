package serve

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"spatial/api"
)

// TestDiskPersistenceAcrossRestart is the core warm-restart contract: a
// program compiled before a restart is a cache hit on the very first
// request after it.
func TestDiskPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()

	e1 := newEngine(t, Config{Workers: 1, CacheEntries: 4, CacheDir: dir})
	req := testReq(srcLoop, api.LevelFull, "f", 10)
	resp, err := e1.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.CacheHit {
		t.Error("first-ever request reported a cache hit")
	}
	ref := resp
	e1.Close()

	files, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(files) != 1 {
		t.Fatalf("persisted %d entries, want 1: %v", len(files), files)
	}

	// Restart: the engine recompiles the persisted program before
	// accepting traffic, so the first request is a hit and bit-identical.
	e2 := newEngine(t, Config{Workers: 1, CacheEntries: 4, CacheDir: dir})
	defer e2.Close()
	if got := e2.Stats().DiskLoaded; got != 1 {
		t.Fatalf("DiskLoaded = %d, want 1", got)
	}
	resp2, err := e2.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp2.CacheHit {
		t.Error("first post-restart request missed the warm cache")
	}
	if resp2.Value != ref.Value || resp2.Stats.Cycles != ref.Stats.Cycles || resp2.Stats.Events != ref.Stats.Events {
		t.Errorf("post-restart run diverged: (%d,%d,%d) vs (%d,%d,%d)",
			resp2.Value, resp2.Stats.Cycles, resp2.Stats.Events, ref.Value, ref.Stats.Cycles, ref.Stats.Events)
	}
	s := e2.Stats()
	if s.CacheHits != 1 || s.CacheMisses != 0 {
		t.Errorf("stats after warm hit: hits %d misses %d, want 1/0", s.CacheHits, s.CacheMisses)
	}
}

// TestDiskLRUBoundAcrossRestart shrinks the cache bound between
// restarts: only the most recently used entries survive, the rest are
// pruned from disk.
func TestDiskLRUBoundAcrossRestart(t *testing.T) {
	dir := t.TempDir()

	e1 := newEngine(t, Config{Workers: 1, CacheEntries: 4, CacheDir: dir})
	srcs := []string{srcLoop, srcArr, srcAdd}
	args := [][]int64{{10}, {2}, {1, 2}}
	for i, src := range srcs {
		if _, err := e1.Do(context.Background(), testReq(src, api.LevelFull, "f", args[i]...)); err != nil {
			t.Fatal(err)
		}
		// mtime is the recency order on disk; space the writes out so the
		// order is unambiguous on coarse-mtime filesystems.
		time.Sleep(10 * time.Millisecond)
	}
	e1.Close()

	e2 := newEngine(t, Config{Workers: 1, CacheEntries: 2, CacheDir: dir})
	defer e2.Close()
	if got := e2.Stats().DiskLoaded; got != 2 {
		t.Fatalf("DiskLoaded = %d, want 2 (bound enforced across restart)", got)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(files) != 2 {
		t.Fatalf("%d entries left on disk, want 2 (excess pruned)", len(files))
	}
	// The two most recent (arr, add) are warm; the oldest (loop) is not.
	if resp, err := e2.Do(context.Background(), testReq(srcAdd, api.LevelFull, "f", 1, 2)); err != nil || !resp.CacheHit {
		t.Errorf("most recent program not warm after restart (err=%v)", err)
	}
	if resp, err := e2.Do(context.Background(), testReq(srcArr, api.LevelFull, "f", 2)); err != nil || !resp.CacheHit {
		t.Errorf("second most recent program not warm after restart (err=%v)", err)
	}
	if resp, err := e2.Do(context.Background(), testReq(srcLoop, api.LevelFull, "f", 10)); err != nil || resp.CacheHit {
		t.Errorf("oldest program should have been pruned by the restart bound (err=%v)", err)
	}
}

// TestDiskEvictionRemovesFile: a runtime LRU eviction also deletes the
// persisted entry, so disk usage tracks the bound.
func TestDiskEvictionRemovesFile(t *testing.T) {
	dir := t.TempDir()
	e := newEngine(t, Config{Workers: 1, CacheEntries: 1, CacheDir: dir})
	defer e.Close()

	if _, err := e.Do(context.Background(), testReq(srcLoop, api.LevelFull, "f", 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Do(context.Background(), testReq(srcAdd, api.LevelFull, "f", 1, 2)); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(files) != 1 {
		t.Fatalf("%d entries on disk after eviction, want 1", len(files))
	}
}

// TestDiskCorruptEntriesSkipped: no invalid entry is ever served. Stale
// wire versions are deleted (a legitimate format change); corrupt or
// mis-keyed entries are quarantined — moved aside and counted, because
// they are evidence of torn writes or bit rot.
func TestDiskCorruptEntriesSkipped(t *testing.T) {
	dir := t.TempDir()
	junk := map[string]string{
		"nothex.json": "{not json",
		"0000000000000000000000000000000000000000000000000000000000000000.json": `{"version":"v0","program":{"source":"int f(void){return 1;}","level":0}}`,
		"1111111111111111111111111111111111111111111111111111111111111111.json": `{"version":"v1","program":{"source":"int f(void){return 1;}","level":0}}`,
	}
	for name, body := range junk {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	e := newEngine(t, Config{Workers: 1, CacheEntries: 4, CacheDir: dir})
	defer e.Close()
	s := e.Stats()
	if s.DiskLoaded != 0 {
		t.Fatalf("DiskLoaded = %d, want 0 (all entries invalid)", s.DiskLoaded)
	}
	if s.DiskQuarantined != 2 {
		t.Fatalf("DiskQuarantined = %d, want 2 (garbage + mis-keyed; stale version is a plain delete)", s.DiskQuarantined)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(files) != 0 {
		t.Fatalf("invalid entries still servable: %v", files)
	}
	quarantined, _ := filepath.Glob(filepath.Join(dir, quarantineDir, "*"))
	if len(quarantined) != 2 {
		t.Fatalf("quarantine holds %d files, want 2: %v", len(quarantined), quarantined)
	}
	for _, q := range quarantined {
		if filepath.Base(q) == "0000000000000000000000000000000000000000000000000000000000000000.json" {
			t.Error("stale-version entry was quarantined; it should be deleted")
		}
	}
}

// TestDiskTornWriteQuarantined simulates a crash mid-write: a truncated
// entry file must be quarantined (not served, not silently deleted) and
// the program recompiled on demand with a bit-identical result.
func TestDiskTornWriteQuarantined(t *testing.T) {
	dir := t.TempDir()
	e1 := newEngine(t, Config{Workers: 1, CacheEntries: 4, CacheDir: dir})
	req := testReq(srcLoop, api.LevelFull, "f", 10)
	ref, err := e1.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	e1.Close()

	files, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(files) != 1 {
		t.Fatalf("persisted %d entries, want 1", len(files))
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	// Tear the write in half.
	if err := os.WriteFile(files[0], data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	e2 := newEngine(t, Config{Workers: 1, CacheEntries: 4, CacheDir: dir})
	defer e2.Close()
	s := e2.Stats()
	if s.DiskLoaded != 0 || s.DiskQuarantined != 1 {
		t.Fatalf("loaded %d / quarantined %d, want 0 / 1", s.DiskLoaded, s.DiskQuarantined)
	}
	if q, _ := filepath.Glob(filepath.Join(dir, quarantineDir, "*.json")); len(q) != 1 {
		t.Fatalf("quarantine holds %d files, want the torn entry", len(q))
	}
	// The program is gone from the cache but not from the service:
	// the next request recompiles it, bit-identically.
	resp, err := e2.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.CacheHit {
		t.Error("torn entry somehow served as a cache hit")
	}
	if resp.Value != ref.Value || resp.Stats.Cycles != ref.Stats.Cycles || resp.Stats.Events != ref.Stats.Events {
		t.Errorf("recompiled run diverged: (%d,%d,%d) vs (%d,%d,%d)",
			resp.Value, resp.Stats.Cycles, resp.Stats.Events, ref.Value, ref.Stats.Cycles, ref.Stats.Events)
	}
	// And the recompile re-persisted a good entry under the same key.
	files2, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(files2) != 1 || files2[0] != files[0] {
		t.Errorf("recompiled entry not re-persisted: %v", files2)
	}
}

// TestDiskUnusableDir: New must fail loudly, not limp along silently
// unpersisted.
func TestDiskUnusableDir(t *testing.T) {
	file := filepath.Join(t.TempDir(), "plainfile")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{CacheDir: filepath.Join(file, "sub")}); err == nil {
		t.Fatal("New accepted a cache dir under a plain file")
	}
}

// TestDiskPartitionedEntryDeleted: an entry persisted for the removed
// partitioned mode (Partitions > 1, keyed "parts=N" when it was written)
// can no longer re-hash to its filename. It is outdated, not corrupt, so
// load deletes it like a stale wire version instead of quarantining it.
func TestDiskPartitionedEntryDeleted(t *testing.T) {
	dir := t.TempDir()
	name := "2222222222222222222222222222222222222222222222222222222222222222.json"
	body := `{"version":"` + api.Version + `","program":{"source":"int f(void){return 1;}","level":3,"partitions":4}}`
	if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, Config{Workers: 1, CacheEntries: 4, CacheDir: dir})
	defer e.Close()
	if s := e.Stats(); s.DiskLoaded != 0 || s.DiskQuarantined != 0 {
		t.Fatalf("loaded %d / quarantined %d, want 0 / 0", s.DiskLoaded, s.DiskQuarantined)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*.json")); len(files) != 0 {
		t.Fatalf("partitioned entry still on disk: %v", files)
	}
	if q, _ := filepath.Glob(filepath.Join(dir, quarantineDir, "*")); len(q) != 0 {
		t.Fatalf("partitioned entry quarantined: %v", q)
	}
}
