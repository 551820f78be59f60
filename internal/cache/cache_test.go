package cache

import (
	"testing"

	"repro/internal/addr"
)

func TestBasicHitMiss(t *testing.T) {
	c, err := New(4096, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	a := addr.Build(1, 2, 0x100)
	if c.Access(a) {
		t.Error("cold access hit")
	}
	if !c.Access(a) {
		t.Error("second access missed")
	}
	if !c.Access(a.Add(63 - uint64(a.Offset())%64)) {
		t.Error("same-line access missed")
	}
}

func TestGeometryValidation(t *testing.T) {
	for _, g := range [][3]int{{0, 4, 64}, {4096, 4, 60}, {4096, 3, 64}, {1000, 4, 64}} {
		if _, err := New(g[0], g[1], g[2]); err == nil {
			t.Errorf("geometry %v accepted", g)
		}
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way, 2-set, 64B lines: 256B cache.
	c, err := New(256, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Three lines mapping to the same set (stride = sets*64 = 128).
	a := addr.New(0)
	b := addr.New(256)
	d := addr.New(512)
	c.Access(a)
	c.Access(b)
	c.Access(a) // a more recent than b
	c.Access(d) // evicts b
	if !c.Contains(a) {
		t.Error("recently used line evicted")
	}
	if c.Contains(b) {
		t.Error("LRU line survived")
	}
	if !c.Contains(d) {
		t.Error("filled line absent")
	}
}

func TestContainsDoesNotAllocate(t *testing.T) {
	c, _ := New(4096, 4, 64)
	a := addr.Build(1, 2, 0)
	if c.Contains(a) {
		t.Error("empty cache contains line")
	}
	if c.Access(a) {
		t.Error("Contains allocated the line")
	}
}

func TestAccessRange(t *testing.T) {
	c, _ := New(32768, 8, 64)
	lo := addr.Build(1, 2, 0x00)
	hi := addr.Build(1, 2, 0xFF) // 4 lines
	if m := c.AccessRange(lo, hi); m != 4 {
		t.Errorf("cold range misses = %d, want 4", m)
	}
	if m := c.AccessRange(lo, hi); m != 0 {
		t.Errorf("warm range misses = %d, want 0", m)
	}
	// Single-instruction block: one line.
	if m := c.AccessRange(addr.Build(1, 3, 0x10), addr.Build(1, 3, 0x10)); m != 1 {
		t.Errorf("single access misses = %d, want 1", m)
	}
}

func TestReset(t *testing.T) {
	c, _ := New(4096, 4, 64)
	a := addr.Build(1, 2, 0)
	c.Access(a)
	c.Reset()
	if c.Contains(a) {
		t.Error("line survived reset")
	}
}

func TestCapacityBehaviour(t *testing.T) {
	// 32 KiB, 8-way, 64B lines: 512 lines. A 1024-line working set thrashes;
	// a 256-line set fits.
	c, _ := New(32768, 8, 64)
	for round := 0; round < 3; round++ {
		for i := 0; i < 256; i++ {
			c.Access(addr.New(uint64(i * 64)))
		}
	}
	hits := 0
	for i := 0; i < 256; i++ {
		if c.Contains(addr.New(uint64(i * 64))) {
			hits++
		}
	}
	if hits != 256 {
		t.Errorf("fitting working set: %d/256 resident", hits)
	}
}
