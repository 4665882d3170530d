package harness

import (
	"testing"
	"time"
)

// TestChaosBatterySmall runs a reduced battery — three peers and the
// kill, corruption and black-hole schedules — and asserts the
// resilience contract end to end: every request succeeds bit-identically
// or fails typed, no hangs, no silent wrong answers, and the kill
// schedule actually fired. The two mechanisms the client keeps are
// load-bearing here: without ring-walk failover peer-kill loses
// requests, and without hedging the black-holed request waits out its
// deadline and fails.
func TestChaosBatterySmall(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos battery spins a cluster; skipped in -short")
	}
	opts := ChaosOptions{
		Peers:       3,
		Requests:    24,
		Concurrency: 2,
		Deadline:    10 * time.Second,
		Seed:        1,
		Schedules:   []string{"peer-kill", "corrupt", "blackhole"},
	}
	rows, err := ChaosBattery(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	if err := ChaosGate(rows); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.OK+r.Typed != r.Requests {
			t.Errorf("%s: ok %d + typed %d != requests %d", r.Schedule, r.OK, r.Typed, r.Requests)
		}
		if r.AvailabilityPct <= 0 {
			t.Errorf("%s: availability %.1f%%, want > 0", r.Schedule, r.AvailabilityPct)
		}
	}
	// The kill and black-hole schedules must actually have fired, or the
	// test proves nothing.
	kill, hole := rows[0], rows[2]
	if kill.Schedule != "peer-kill" || kill.Triggered == 0 {
		t.Errorf("peer-kill schedule triggered %d refusals, want > 0", kill.Triggered)
	}
	if hole.Schedule != "blackhole" || hole.Triggered == 0 {
		t.Errorf("blackhole schedule triggered %d drops, want > 0", hole.Triggered)
	}
	// Failover masks a single dead peer and the hedge masks a swallowed
	// request: neither may cost a request.
	for _, r := range []ChaosRow{kill, hole} {
		if r.OK != r.Requests {
			t.Errorf("%s: %d/%d succeeded, want every request", r.Schedule, r.OK, r.Requests)
		}
	}
}
