package pegasus

import (
	"bytes"
	"testing"
)

// testMemory is a 1 KiB address space whose stored prefix starts at the
// 64-byte data segment.
func testMemory() Memory {
	return (&Layout{StackBase: 64, MemSize: 1024}).NewMemory()
}

func TestMemoryReadsZeroAboveStored(t *testing.T) {
	m := testMemory()
	m.Store(60, 4, 0x11223344)
	if got := m.Load(60, 4, false); got != 0x11223344 {
		t.Fatalf("Load(60) = %#x, want 0x11223344", got)
	}
	// [62, 66) straddles the stored prefix: bytes 64 and 65 read 0.
	if got := m.Load(62, 4, false); got != 0x1122 {
		t.Fatalf("Load(62) = %#x, want 0x1122", got)
	}
	if got := m.Load(1000, 4, true); got != 0 {
		t.Fatalf("Load(1000) = %#x, want 0", got)
	}
	if got := m.ReadBytes(60, 8); !bytes.Equal(got, []byte{0x44, 0x33, 0x22, 0x11, 0, 0, 0, 0}) {
		t.Fatalf("ReadBytes(60, 8) = % x", got)
	}
	if len(m.b) != 64 {
		t.Fatalf("reads grew the image to %d bytes, want 64", len(m.b))
	}
}

func TestMemoryStoreAtTop(t *testing.T) {
	m := testMemory()
	m.Store(100, 1, 7)
	if len(m.b) != 128 {
		t.Fatalf("store at 100 grew the image to %d bytes, want 128 (doubling)", len(m.b))
	}
	m.Store(1020, 4, -1) // ends exactly at MemSize: lands
	if got := m.Load(1020, 4, true); got != -1 {
		t.Fatalf("Load(1020) = %d, want -1", got)
	}
	if len(m.b) != 1024 {
		t.Fatalf("image is %d bytes, want capped at MemSize 1024", len(m.b))
	}
	m.Store(1021, 4, 0x55) // one byte past MemSize: dropped
	if got := m.Load(1020, 4, true); got != -1 {
		t.Fatalf("a store past MemSize changed memory: Load(1020) = %d", got)
	}
	if got := m.Load(1021, 4, true); got != 0 {
		t.Fatalf("Load(1021) past MemSize = %d, want 0", got)
	}
	if got := m.ReadBytes(1020, 8); !bytes.Equal(got, []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) {
		t.Fatalf("ReadBytes across MemSize = % x", got)
	}
	if m.Load(100, 1, false) != 7 {
		t.Fatal("growing lost stored bytes")
	}
}

func TestMemoryClearAboveStored(t *testing.T) {
	m := testMemory()
	m.Store(60, 4, -1)
	m.Clear(200, 300) // wholly above the stored prefix: nothing to do
	if len(m.b) != 64 {
		t.Fatalf("Clear grew the image to %d bytes", len(m.b))
	}
	m.Clear(62, 300) // straddles: clears the stored part only
	if got := m.Load(60, 4, false); got != 0xffff {
		t.Fatalf("Load(60) after Clear(62, 300) = %#x, want 0xffff", got)
	}
}
