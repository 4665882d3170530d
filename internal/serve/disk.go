package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"spatial/api"
)

// diskStore persists the compile cache across restarts. Each entry is a
// small JSON file named by the cache key's hex digest, holding the wire
// form of the program (api.Program) — the compile *inputs*, not the
// compiled graphs: compilation is deterministic, so the value is
// re-derived by recompiling at startup, which sidesteps serializing the
// in-memory graph structures and can never load a stale artifact that
// disagrees with the current compiler.
//
// Recency is the file's mtime: hits touch it, startup loads newest
// first, and the LRU bound holds across restarts — entries past the
// bound are deleted at load. All writes are atomic (temp file + rename)
// and every disk operation is best-effort: a broken disk degrades the
// service to a cold cache, never to failure.
type diskStore struct {
	dir string
}

// diskEntry is the on-disk JSON schema of one cache entry.
type diskEntry struct {
	Version string      `json:"version"`
	Program api.Program `json:"program"`
}

const diskSuffix = ".json"

// openDiskStore creates (if needed) and opens a cache directory.
func openDiskStore(dir string) (*diskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: cache dir: %w", err)
	}
	return &diskStore{dir: dir}, nil
}

func (d *diskStore) path(key cacheKey) string {
	return filepath.Join(d.dir, key.String()+diskSuffix)
}

// put writes an entry through to disk: temp file, fsync, atomic rename,
// then a directory fsync so a crash right after put still finds either
// nothing or the complete entry — never a torn file under the final
// name. (The directory sync is best-effort: some filesystems refuse it.)
func (d *diskStore) put(key cacheKey, p api.Program) error {
	data, err := json.Marshal(diskEntry{Version: api.Version, Program: p})
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(d.dir, "put-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, d.path(key)); err != nil {
		os.Remove(name)
		return err
	}
	d.syncDir()
	return nil
}

// syncDir persists the rename itself. A failure is ignored: the entry
// is durable in content, and load verifies integrity anyway.
func (d *diskStore) syncDir() {
	dir, err := os.Open(d.dir)
	if err != nil {
		return
	}
	_ = dir.Sync()
	dir.Close()
}

// quarantineDir is the subdirectory corrupt entries are moved into:
// evidence of torn writes or bit rot stays inspectable instead of being
// silently destroyed.
const quarantineDir = "quarantine"

// quarantine moves a corrupt entry aside; if the move itself fails the
// entry is removed so it can never be served.
func (d *diskStore) quarantine(path string) {
	qdir := filepath.Join(d.dir, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		_ = os.Remove(path)
		return
	}
	if err := os.Rename(path, filepath.Join(qdir, filepath.Base(path))); err != nil {
		_ = os.Remove(path)
	}
}

// touch marks an entry recently used.
func (d *diskStore) touch(key cacheKey) {
	now := time.Now()
	_ = os.Chtimes(d.path(key), now, now)
}

// remove deletes an evicted entry.
func (d *diskStore) remove(key cacheKey) {
	_ = os.Remove(d.path(key))
}

// load reads every persisted entry, newest first, keeping at most max.
// Entries past the LRU bound, stale wire versions, and entries of the
// removed partitioned mode are deleted (all legitimate, explicable
// states); unreadable or truncated files and
// entries whose content no longer re-hashes to their <keyhex> filename
// are *quarantined* — moved under quarantine/ and counted, because they
// are evidence of a torn write or bit rot that an operator should see.
// It returns the survivors in oldest-first order so the caller can
// insert them into an LRU and end with the newest at the front, plus
// the number of entries quarantined.
func (d *diskStore) load(max int) ([]loadedEntry, int) {
	names, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, 0
	}
	type candidate struct {
		path  string
		mtime time.Time
	}
	var cands []candidate
	for _, de := range names {
		if de.IsDir() || !strings.HasSuffix(de.Name(), diskSuffix) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		cands = append(cands, candidate{path: filepath.Join(d.dir, de.Name()), mtime: info.ModTime()})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].mtime.After(cands[j].mtime) })

	var out []loadedEntry
	quarantined := 0
	for i, c := range cands {
		if i >= max {
			_ = os.Remove(c.path) // LRU bound holds across restarts
			continue
		}
		var ent diskEntry
		data, err := os.ReadFile(c.path)
		if err == nil {
			err = json.Unmarshal(data, &ent)
		}
		if err != nil {
			// Unreadable or torn: quarantine the evidence.
			d.quarantine(c.path)
			quarantined++
			continue
		}
		if ent.Version != api.Version || ent.Program.Partitions > 1 {
			// Stale format, or an entry written for the removed
			// partitioned mode (keyed "parts=N", so it can never re-hash
			// to its name now): outdated, not corruption.
			_ = os.Remove(c.path)
			continue
		}
		key, err := programKey(ent.Program)
		if err != nil || filepath.Base(c.path) != key.String()+diskSuffix {
			// The content does not hash to the filename: serving it
			// would answer for a key it no longer matches.
			d.quarantine(c.path)
			quarantined++
			continue
		}
		out = append(out, loadedEntry{key: key, prog: ent.Program})
	}
	// Reverse to oldest-first for LRU insertion order.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out, quarantined
}

// loadedEntry is one persisted program recovered at startup.
type loadedEntry struct {
	key  cacheKey
	prog api.Program
}
