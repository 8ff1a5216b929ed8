package failpoint

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestDisarmedHitIsZeroAllocNoOp(t *testing.T) {
	Reset()
	if err := Hit("nothing/armed"); err != nil {
		t.Fatalf("disarmed Hit returned %v", err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := Hit("campaign/shard"); err != nil {
			t.Errorf("disarmed Hit returned %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("disarmed Hit allocates %.1f per call, want 0", allocs)
	}
}

func TestErrorNTimes(t *testing.T) {
	defer Reset()
	boom := errors.New("boom")
	Arm("p", Action{Err: boom, Times: 2})
	for i := 0; i < 2; i++ {
		if err := Hit("p"); !errors.Is(err, boom) {
			t.Fatalf("hit %d: %v, want boom", i, err)
		}
	}
	if err := Hit("p"); err != nil {
		t.Fatalf("hit past budget returned %v, want nil", err)
	}
	if Hits("p") != 3 || Fired("p") != 2 {
		t.Fatalf("hits=%d fired=%d, want 3/2", Hits("p"), Fired("p"))
	}
}

func TestErrorEveryHitUntilDisarmed(t *testing.T) {
	defer Reset()
	boom := errors.New("boom")
	Arm("p", Action{Err: boom}) // Times 0: every hit
	for i := 0; i < 5; i++ {
		if err := Hit("p"); !errors.Is(err, boom) {
			t.Fatalf("hit %d: %v", i, err)
		}
	}
	Reset()
	if err := Hit("p"); err != nil {
		t.Fatalf("disarmed Hit returned %v", err)
	}
	if Hits("p") != 0 {
		t.Fatal("counters must reset on disarm")
	}
}

func TestPanicAction(t *testing.T) {
	defer Reset()
	Arm("p", Action{Panic: "injected crash", Times: 1})
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("armed panic did not panic")
			}
			if s, ok := r.(string); !ok || !strings.Contains(s, "injected crash") || !strings.Contains(s, `"p"`) {
				t.Fatalf("panic value %v lacks name/message", r)
			}
		}()
		Hit("p")
	}()
	if err := Hit("p"); err != nil { // budget spent
		t.Fatalf("second hit: %v", err)
	}
}

func TestDelayAction(t *testing.T) {
	defer Reset()
	Arm("p", Action{Delay: 30 * time.Millisecond, Times: 1})
	start := time.Now()
	if err := Hit("p"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("delayed hit returned after %v, want >= 30ms", d)
	}
}

func TestRearmReplacesActionAndCounters(t *testing.T) {
	defer Reset()
	Arm("p", Action{Err: errors.New("a"), Times: 1})
	Hit("p")
	Arm("p", Action{Err: errors.New("b"), Times: 1})
	if Fired("p") != 0 {
		t.Fatal("re-arming must reset counters")
	}
	if err := Hit("p"); err == nil || err.Error() != "b" {
		t.Fatalf("re-armed action returned %v", err)
	}
}

func TestConcurrentHitsCountExactly(t *testing.T) {
	defer Reset()
	boom := errors.New("boom")
	Arm("p", Action{Err: boom, Times: 7})
	var wg sync.WaitGroup
	var triggered sync.Map
	errs := make(chan error, 100)
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- Hit("p")
			triggered.Store(0, true)
		}()
	}
	wg.Wait()
	close(errs)
	n := 0
	for err := range errs {
		if err != nil {
			n++
		}
	}
	if n != 7 {
		t.Fatalf("%d hits triggered, want exactly 7", n)
	}
	if Hits("p") != 100 || Fired("p") != 7 {
		t.Fatalf("hits=%d fired=%d, want 100/7", Hits("p"), Fired("p"))
	}
}
