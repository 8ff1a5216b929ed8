package syndrome

import (
	"math/rand"
	"sync"
	"testing"
)

// columnXor is the definition: the XOR of the columns of the set bits.
func columnXor(cols []uint64, b []byte) uint64 {
	var s uint64
	for j, c := range cols {
		if b[j/8]&(1<<(j%8)) != 0 {
			s ^= c
		}
	}
	return s
}

func TestSyndromeIsColumnXor(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 17, 20, 36} {
		cols := make([]uint64, 8*n)
		for j := range cols {
			cols[j] = rng.Uint64()
		}
		calls := 0
		tab := New(n, func(j int) uint64 { calls++; return cols[j] })
		if calls != 0 {
			t.Fatalf("n=%d: New called col %d times before first use", n, calls)
		}
		b := make([]byte, n)
		for trial := 0; trial < 300; trial++ {
			rng.Read(b)
			if got, want := tab.Syndrome(b), columnXor(cols, b); got != want {
				t.Fatalf("n=%d: Syndrome(%x) = %#x, column XOR %#x", n, b, got, want)
			}
		}
		if calls != 8*n {
			t.Fatalf("n=%d: col called %d times, want once per stored bit (%d)", n, calls, 8*n)
		}
		clear(b)
		if tab.Syndrome(b) != 0 {
			t.Fatalf("n=%d: the zero word has a nonzero syndrome", n)
		}
	}
}

func TestSyndromeArgumentChecks(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("empty table", func() { New(0, func(int) uint64 { return 0 }) })
	tab := New(4, func(j int) uint64 { return 1 << j })
	mustPanic("short word", func() { tab.Syndrome(make([]byte, 3)) })
	mustPanic("long word", func() { tab.Syndrome(make([]byte, 5)) })
}

// TestConcurrentFirstUse builds the table from many goroutines at once:
// every caller must see the finished rows (run under -race).
func TestConcurrentFirstUse(t *testing.T) {
	tab := New(16, func(j int) uint64 { return uint64(j + 1) })
	b := make([]byte, 16)
	b[15] = 0x80
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if s := tab.Syndrome(b); s != 128 {
				t.Errorf("Syndrome = %d, want 128", s)
			}
		}()
	}
	wg.Wait()
}

func TestSyndromeAllocs(t *testing.T) {
	tab := New(20, func(j int) uint64 { return uint64(j) * 0x9E3779B97F4A7C15 })
	b := make([]byte, 20)
	if n := testing.AllocsPerRun(100, func() { b[3]++; tab.Syndrome(b) }); n != 0 {
		t.Fatalf("Syndrome allocated %v objects per call, want 0", n)
	}
}
