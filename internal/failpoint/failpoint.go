// Package failpoint provides named, deterministic fault-injection
// points for testing failure paths that are otherwise unreachable:
// transient I/O errors, worker panics, and stuck operations.
//
// Production code marks a potential failure site with
//
//	if err := failpoint.Hit("campaign/checkpoint/write"); err != nil {
//		return err
//	}
//
// and tests arm the site with an Action (error the first N hits, panic,
// delay) via Arm. A disarmed failpoint is a true no-op: Hit performs a
// single atomic load, allocates nothing, and returns nil — verified by
// an allocation test — so the hooks can stay compiled into hot paths.
//
// Actions trigger deterministically: an Action with Times = n fires on
// exactly the first n hits and is inert afterwards, so a test that arms
// one transient error sees exactly one retry regardless of scheduling.
// The registry is process-global and safe for concurrent use; tests
// should defer Reset() to leave no points armed for the next test.
package failpoint

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Action describes what an armed failpoint does when hit.
//
// At most one of Err and Panic should be set (Delay may accompany
// either, or stand alone to model a slow-but-successful operation).
type Action struct {
	// Err, when non-nil, is returned by Hit on each triggered hit —
	// the site treats it as the failure of the operation it guards.
	Err error

	// Panic, when non-nil, makes Hit panic with this value, modeling a
	// crash inside the guarded operation.
	Panic any

	// Delay, when positive, makes Hit sleep before returning (or
	// panicking), modeling a stuck or slow operation.
	Delay time.Duration

	// Times bounds how many hits trigger the action: n > 0 means the
	// first n hits only, 0 means every hit until Reset.
	Times int
}

// point is one armed site plus its counters.
type point struct {
	action Action
	hits   int // Hit calls that reached this armed point
	fired  int // hits that triggered the action
}

var (
	// armed is the fast-path gate: false means no point is armed
	// anywhere and Hit returns immediately without locking.
	armed atomic.Bool

	mu     sync.Mutex
	points = map[string]*point{}
)

// Arm installs (or replaces) the action at name.
func Arm(name string, a Action) {
	mu.Lock()
	defer mu.Unlock()
	points[name] = &point{action: a}
	armed.Store(true)
}

// Reset disarms every point. Tests arm points and defer Reset.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	points = map[string]*point{}
	armed.Store(false)
}

// Hits reports how many Hit calls reached the armed point at name
// (including hits past an exhausted Times budget). 0 if not armed.
func Hits(name string) int {
	mu.Lock()
	defer mu.Unlock()
	if p, ok := points[name]; ok {
		return p.hits
	}
	return 0
}

// Fired reports how many hits triggered the action at name.
func Fired(name string) int {
	mu.Lock()
	defer mu.Unlock()
	if p, ok := points[name]; ok {
		return p.fired
	}
	return 0
}

// Hit evaluates the failpoint at name. Disarmed (the production state)
// it is a zero-allocation no-op returning nil. Armed, it counts the hit
// and — while the Times budget lasts — sleeps Action.Delay, panics with
// Action.Panic, or returns Action.Err.
func Hit(name string) error {
	if !armed.Load() {
		return nil
	}
	return hitSlow(name)
}

// hitSlow is the armed path, kept out of Hit so the disarmed fast path
// stays trivially inlinable.
func hitSlow(name string) error {
	mu.Lock()
	p, ok := points[name]
	if !ok {
		mu.Unlock()
		return nil
	}
	p.hits++
	if p.action.Times > 0 && p.fired >= p.action.Times {
		mu.Unlock()
		return nil // budget exhausted: inert until Reset or re-armed
	}
	p.fired++
	a := p.action
	mu.Unlock()

	if a.Delay > 0 {
		time.Sleep(a.Delay)
	}
	if a.Panic != nil {
		panic(fmt.Sprintf("failpoint %q: %v", name, a.Panic))
	}
	return a.Err
}
