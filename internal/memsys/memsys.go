// Package memsys models the memory systems of the paper's evaluation
// (Section 7.3): a load/store queue with a finite number of ports and
// entries feeding either a perfect memory or a realistic two-level cache
// hierarchy with a TLB. Latencies follow the paper: L1 8KB with 2-cycle
// hits, L2 256KB with 8-cycle hits, 72-cycle memory latency with 4 cycles
// between consecutive words, a 64-page TLB with a 30-cycle miss cost, and
// dual-ported memory.
package memsys

import "fmt"

// Config selects and parameterizes a memory system.
type Config struct {
	// Kind selects the hierarchy model.
	Kind Kind
	// Ports is the number of LSQ ports (requests issued per cycle).
	Ports int
	// QueueSize is the number of outstanding requests the LSQ holds.
	QueueSize int

	// PerfectLatency is the fixed latency of Kind == Perfect.
	PerfectLatency int64

	// Cache parameters (Kind == Realistic); zero values use the paper's.
	L1Bytes     int
	L1Latency   int64
	L2Bytes     int
	L2Latency   int64
	MemLatency  int64
	WordGap     int64 // cycles between consecutive words from DRAM
	LineBytes   int
	TLBPages    int
	TLBMissCost int64
	PageBytes   int
}

// MaxCacheBytes bounds L1Bytes and L2Bytes. A cache model allocates its
// tags up front, 13 bytes per line, so a size taken from untrusted input
// must not reach it unchecked. 4 MiB is the size of the simulated memory
// and 16× the paper's L2.
const MaxCacheBytes = 4 << 20

// Kind selects the memory model.
type Kind int

// Memory system kinds.
const (
	Perfect Kind = iota
	Realistic
)

// PerfectConfig returns the idealized memory used for upper-bound
// numbers.
func PerfectConfig() Config {
	return Config{Kind: Perfect, Ports: 2, QueueSize: 16, PerfectLatency: 2}
}

// Named returns the memory system a command-line name selects:
// "perfect", or "real1", "real2" or "real4" for PaperConfig with that
// many ports.
func Named(s string) (Config, error) {
	switch s {
	case "perfect":
		return PerfectConfig(), nil
	case "real1", "real2", "real4":
		return PaperConfig(int(s[4] - '0')), nil
	}
	return Config{}, fmt.Errorf("unknown memory system %q", s)
}

// PaperConfig returns the realistic memory system of Section 7.3 with the
// given number of ports.
func PaperConfig(ports int) Config {
	return Config{
		Kind:        Realistic,
		Ports:       ports,
		QueueSize:   16,
		L1Bytes:     8 << 10,
		L1Latency:   2,
		L2Bytes:     256 << 10,
		L2Latency:   8,
		MemLatency:  72,
		WordGap:     4,
		LineBytes:   32,
		TLBPages:    64,
		TLBMissCost: 30,
		PageBytes:   4 << 10,
	}
}

func (c Config) withDefaults() Config {
	if c.Ports <= 0 {
		c.Ports = 2
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 16
	}
	if c.PerfectLatency <= 0 {
		c.PerfectLatency = 2
	}
	if c.L1Bytes <= 0 {
		c.L1Bytes = 8 << 10
	}
	if c.L1Latency <= 0 {
		c.L1Latency = 2
	}
	if c.L2Bytes <= 0 {
		c.L2Bytes = 256 << 10
	}
	if c.L2Latency <= 0 {
		c.L2Latency = 8
	}
	if c.MemLatency <= 0 {
		c.MemLatency = 72
	}
	if c.WordGap <= 0 {
		c.WordGap = 4
	}
	if c.LineBytes <= 0 {
		c.LineBytes = 32
	}
	if c.TLBPages <= 0 {
		c.TLBPages = 64
	}
	if c.TLBMissCost <= 0 {
		c.TLBMissCost = 30
	}
	if c.PageBytes <= 0 {
		c.PageBytes = 4 << 10
	}
	return c
}

// Validate rejects nonsensical configurations with actionable messages.
// Zero fields mean "use the default" and are accepted (the entirely-zero
// Config is every default); negative values and impossible geometries
// are errors. Normalized configurations always validate.
func (c Config) Validate() error {
	if c == (Config{}) {
		return nil // all defaults
	}
	if c.Kind != Perfect && c.Kind != Realistic {
		return fmt.Errorf("memsys: unknown Kind %d; use memsys.Perfect or memsys.Realistic", c.Kind)
	}
	if c.Ports < 0 {
		return fmt.Errorf("memsys: Ports %d is negative; an LSQ needs at least one port (0 selects the default, 2)", c.Ports)
	}
	if c.QueueSize < 0 {
		return fmt.Errorf("memsys: QueueSize %d is negative; the LSQ needs at least one entry (0 selects the default, 16)", c.QueueSize)
	}
	if c.Ports > 0 && c.QueueSize > 0 && c.QueueSize < c.Ports {
		return fmt.Errorf("memsys: QueueSize %d is smaller than Ports %d; every port needs an LSQ entry to issue into", c.QueueSize, c.Ports)
	}
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"PerfectLatency", c.PerfectLatency},
		{"L1Latency", c.L1Latency},
		{"L2Latency", c.L2Latency},
		{"MemLatency", c.MemLatency},
		{"WordGap", c.WordGap},
		{"TLBMissCost", c.TLBMissCost},
		{"L1Bytes", int64(c.L1Bytes)},
		{"L2Bytes", int64(c.L2Bytes)},
		{"LineBytes", int64(c.LineBytes)},
		{"TLBPages", int64(c.TLBPages)},
		{"PageBytes", int64(c.PageBytes)},
	} {
		if f.v < 0 {
			return fmt.Errorf("memsys: %s %d is negative; use 0 for the default or a positive value", f.name, f.v)
		}
	}
	if c.LineBytes > 0 && (c.LineBytes&(c.LineBytes-1) != 0 || c.LineBytes < 4) {
		return fmt.Errorf("memsys: LineBytes %d must be a power of two ≥ 4", c.LineBytes)
	}
	if c.PageBytes > 0 && c.PageBytes&(c.PageBytes-1) != 0 {
		return fmt.Errorf("memsys: PageBytes %d must be a power of two", c.PageBytes)
	}
	if c.L1Bytes > MaxCacheBytes {
		return fmt.Errorf("memsys: L1Bytes %d exceeds %d, the size of the simulated memory", c.L1Bytes, MaxCacheBytes)
	}
	if c.L2Bytes > MaxCacheBytes {
		return fmt.Errorf("memsys: L2Bytes %d exceeds %d, the size of the simulated memory", c.L2Bytes, MaxCacheBytes)
	}
	if c.L1Bytes > 0 && c.LineBytes > 0 && c.L1Bytes < c.LineBytes {
		return fmt.Errorf("memsys: L1Bytes %d is smaller than one line (%d bytes)", c.L1Bytes, c.LineBytes)
	}
	return nil
}

// String names the configuration for reports.
func (c Config) String() string {
	if c.Kind == Perfect {
		return fmt.Sprintf("perfect(%d-port)", c.Ports)
	}
	return fmt.Sprintf("realistic(%d-port)", c.Ports)
}

// Level says where in the hierarchy a request was satisfied.
type Level uint8

// Hit levels.
const (
	LvlPerfect Level = iota // Kind == Perfect: fixed-latency memory
	LvlL1
	LvlL2
	LvlMem // DRAM access (L2 miss)
)

var levelNames = [...]string{LvlPerfect: "perfect", LvlL1: "L1", LvlL2: "L2", LvlMem: "mem"}

// String names the level.
func (l Level) String() string { return levelNames[l] }

// Event describes one memory request for tracing: when it arrived at the
// LSQ, when a port issued it, when its response came back, where it hit,
// and how long it stalled for a port or queue slot.
type Event struct {
	Start int64 // cycle the request reached the LSQ
	Issue int64 // cycle a port accepted it
	Done  int64 // cycle the response is available
	Load  bool
	Addr  uint32
	Bytes int
	Port  int   // which port issued the request
	Queue int   // LSQ occupancy observed at submit (before insertion)
	Level Level // hierarchy level that satisfied the request
	TLB   bool  // request took a TLB miss
}

// PortWait is the cycles the request spent waiting for a free port or
// queue slot (memory-port contention).
func (e Event) PortWait() int64 { return e.Issue - e.Start }

// Latency is the issue-to-response time.
func (e Event) Latency() int64 { return e.Done - e.Issue }

// Observer receives one Event per memory request. Implementations must
// not call back into the System.
type Observer interface {
	MemEvent(Event)
}

// Perturber adjusts individual memory responses before they are
// returned — the fault-injection hook. It sees the fully-timed Event and
// returns the completion cycle to use instead (never earlier than
// e.Issue) plus a fail flag marking the response as corrupted; a failed
// response is latched in the System and surfaced via TakeFault.
// Implementations must not call back into the System.
type Perturber interface {
	PerturbMem(e Event) (done int64, fail bool)
}

// Stats accumulates memory-system statistics.
type Stats struct {
	Loads     int64
	Stores    int64
	L1Hits    int64
	L1Misses  int64
	L2Hits    int64
	L2Misses  int64
	TLBMisses int64
	// StallCycles counts cycles requests spent waiting for a port or a
	// queue slot.
	StallCycles int64
}

// System is an LSQ in front of a cache hierarchy. It is a timing model
// only; data storage lives in the simulator's flat memory.
type System struct {
	cfg   Config
	stats Stats

	// outstanding completion times (bounded by QueueSize).
	outstanding []int64
	// Per-cycle issue counts for port limiting. Submit times are
	// non-decreasing (both simulation engines submit at the current
	// cycle), so counts live in a ring of issueWindow cycles starting at
	// issueBase (the highest submit time seen); the rare probe beyond the
	// window — a request stalled far into the future — falls back to the
	// overflow map.
	issueCnt  []int32
	issueBase int64
	issueOvf  map[int64]int32

	l1, l2 *cache
	tlb    *tlbModel
	// nextDRAMFree models the word-serial DRAM channel.
	nextDRAMFree int64

	// obs, when non-nil, receives one Event per request.
	obs Observer
	// perturb, when non-nil, may stretch or fail each response.
	perturb Perturber
	// faulted marks that a perturbed response was flagged as corrupted.
	faulted bool
}

// SetObserver installs (or clears, with nil) the event observer.
func (s *System) SetObserver(o Observer) { s.obs = o }

// SetPerturber installs (or clears, with nil) the response perturber.
func (s *System) SetPerturber(p Perturber) { s.perturb = p }

// TakeFault reports whether a perturbed response was marked corrupted
// since the last call, clearing the flag.
func (s *System) TakeFault() bool {
	f := s.faulted
	s.faulted = false
	return f
}

// New creates a memory system.
func New(cfg Config) *System {
	cfg = cfg.withDefaults()
	s := &System{cfg: cfg, issueCnt: make([]int32, issueWindow)}
	if cfg.Kind == Realistic {
		s.l1 = newCache(cfg.L1Bytes, cfg.LineBytes, 2)
		s.l2 = newCache(cfg.L2Bytes, cfg.LineBytes, 4)
		s.tlb = newTLB(cfg.TLBPages, cfg.PageBytes)
	}
	return s
}

// Stats returns the accumulated statistics.
func (s *System) Stats() Stats { return s.stats }

// Config returns the (defaulted) configuration.
func (s *System) Config() Config { return s.cfg }

// Submit models one memory request arriving at cycle t and returns the
// cycle at which its response is available.
func (s *System) Submit(t int64, isLoad bool, addr uint32, bytes int) int64 {
	if isLoad {
		s.stats.Loads++
	} else {
		s.stats.Stores++
	}
	start := t
	queueAtSubmit := len(s.outstanding)
	// Wait for a free LSQ slot.
	for len(s.outstanding) >= s.cfg.QueueSize {
		earliest := s.outstanding[0]
		idx := 0
		for i, c := range s.outstanding {
			if c < earliest {
				earliest, idx = c, i
			}
		}
		if earliest > t {
			t = earliest
		}
		s.outstanding = append(s.outstanding[:idx], s.outstanding[idx+1:]...)
	}
	// Wait for a port.
	s.issueAdvance(start)
	for int(s.issueAt(t)) >= s.cfg.Ports {
		t++
	}
	port := int(s.issueAt(t))
	s.issueAdd(t)
	s.stats.StallCycles += t - start
	var done int64
	level := LvlPerfect
	tlbMiss := false
	if s.cfg.Kind == Perfect {
		done = t + s.cfg.PerfectLatency
	} else {
		var lat int64
		lat, level, tlbMiss = s.accessLatency(t, addr, bytes)
		done = t + lat
	}
	ev := Event{
		Start: start, Issue: t, Done: done,
		Load: isLoad, Addr: addr, Bytes: bytes,
		Port: port, Queue: queueAtSubmit, Level: level, TLB: tlbMiss,
	}
	if s.perturb != nil {
		nd, fail := s.perturb.PerturbMem(ev)
		if nd > done {
			done = nd
			ev.Done = nd
		}
		if fail {
			s.faulted = true
		}
	}
	s.outstanding = append(s.outstanding, done)
	if s.obs != nil {
		s.obs.MemEvent(ev)
	}
	return done
}

// issueWindow is the span of cycles whose issue counts live in the
// ring; stalls beyond it spill to the overflow map.
const issueWindow = 1024

// issueAdvance moves the ring window forward to a new submit time,
// retiring counts for cycles that can never be probed again (every
// probe is at or above its request's submit time, and submit times are
// non-decreasing) and pulling overflow entries that fell into range.
func (s *System) issueAdvance(t int64) {
	if t <= s.issueBase {
		return
	}
	if adv := t - s.issueBase; adv >= issueWindow {
		clear(s.issueCnt)
	} else {
		for c := s.issueBase; c < t; c++ {
			s.issueCnt[c&(issueWindow-1)] = 0
		}
	}
	s.issueBase = t
	if len(s.issueOvf) > 0 {
		for c, n := range s.issueOvf {
			if c < t {
				delete(s.issueOvf, c)
			} else if c < t+issueWindow {
				s.issueCnt[c&(issueWindow-1)] = n
				delete(s.issueOvf, c)
			}
		}
	}
}

func (s *System) issueAt(c int64) int32 {
	if c < s.issueBase+issueWindow {
		return s.issueCnt[c&(issueWindow-1)]
	}
	return s.issueOvf[c]
}

func (s *System) issueAdd(c int64) {
	if c < s.issueBase+issueWindow {
		s.issueCnt[c&(issueWindow-1)]++
		return
	}
	if s.issueOvf == nil {
		s.issueOvf = map[int64]int32{}
	}
	s.issueOvf[c]++
}

func (s *System) accessLatency(t int64, addr uint32, bytes int) (int64, Level, bool) {
	lat := int64(0)
	tlbMiss := false
	if !s.tlb.lookup(addr) {
		s.stats.TLBMisses++
		lat += s.cfg.TLBMissCost
		tlbMiss = true
	}
	if s.l1.lookup(addr) {
		s.stats.L1Hits++
		return lat + s.cfg.L1Latency, LvlL1, tlbMiss
	}
	s.stats.L1Misses++
	s.l1.fill(addr)
	if s.l2.lookup(addr) {
		s.stats.L2Hits++
		return lat + s.cfg.L1Latency + s.cfg.L2Latency, LvlL2, tlbMiss
	}
	s.stats.L2Misses++
	s.l2.fill(addr)
	// DRAM: base latency plus word-serial transfer of the line; the
	// channel is busy WordGap cycles per word.
	words := int64(s.cfg.LineBytes / 4)
	busyUntil := s.nextDRAMFree
	if t > busyUntil {
		busyUntil = t
	}
	transfer := s.cfg.MemLatency + s.cfg.WordGap*(words-1)
	s.nextDRAMFree = busyUntil + s.cfg.WordGap*words
	return lat + s.cfg.L1Latency + s.cfg.L2Latency + (busyUntil - t) + transfer, LvlMem, tlbMiss
}

// --- cache model ---

type cache struct {
	sets      int
	ways      int
	lineShift uint
	// Way w of set s is entry s*ways+w of each slice; lru holds the
	// clock value of the entry's last use.
	tags  []uint32
	valid []bool
	lru   []int64
	clock int64
}

func newCache(totalBytes, lineBytes, ways int) *cache {
	lines := totalBytes / lineBytes
	sets := lines / ways
	if sets < 1 {
		sets = 1
	}
	shift := uint(0)
	for 1<<shift < lineBytes {
		shift++
	}
	return &cache{
		sets: sets, ways: ways, lineShift: shift,
		tags:  make([]uint32, sets*ways),
		valid: make([]bool, sets*ways),
		lru:   make([]int64, sets*ways),
	}
}

func (c *cache) addr2set(addr uint32) (set int, tag uint32) {
	line := addr >> c.lineShift
	return int(line) % c.sets, line
}

// lookup probes the cache, updating LRU on hit.
func (c *cache) lookup(addr uint32) bool {
	set, tag := c.addr2set(addr)
	c.clock++
	for i := set * c.ways; i < (set+1)*c.ways; i++ {
		if c.valid[i] && c.tags[i] == tag {
			c.lru[i] = c.clock
			return true
		}
	}
	return false
}

// fill inserts the line containing addr, evicting the LRU way.
func (c *cache) fill(addr uint32) {
	set, tag := c.addr2set(addr)
	c.clock++
	victim := set * c.ways
	for i := victim; i < (set+1)*c.ways; i++ {
		if !c.valid[i] {
			victim = i
			break
		}
		if c.lru[i] < c.lru[victim] {
			victim = i
		}
	}
	c.valid[victim] = true
	c.tags[victim] = tag
	c.lru[victim] = c.clock
}

// --- TLB model ---

type tlbModel struct {
	pages     int
	pageShift uint
	entries   map[uint32]int64 // page → recency
	clock     int64
}

func newTLB(pages, pageBytes int) *tlbModel {
	shift := uint(0)
	for 1<<shift < pageBytes {
		shift++
	}
	return &tlbModel{pages: pages, pageShift: shift, entries: map[uint32]int64{}}
}

func (t *tlbModel) lookup(addr uint32) bool {
	page := addr >> t.pageShift
	t.clock++
	if _, ok := t.entries[page]; ok {
		t.entries[page] = t.clock
		return true
	}
	// Miss: insert, evicting LRU if full.
	if len(t.entries) >= t.pages {
		var lruPage uint32
		lruTime := int64(1) << 62
		for p, tm := range t.entries {
			if tm < lruTime {
				lruTime, lruPage = tm, p
			}
		}
		delete(t.entries, lruPage)
	}
	t.entries[page] = t.clock
	return false
}
