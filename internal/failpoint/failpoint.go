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
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Action describes what an armed failpoint does when hit.
//
// Exactly one of Err, Panic and Exit should be set (Delay may accompany
// any of them, or stand alone to model a slow-but-successful operation).
type Action struct {
	// Err, when non-nil, is returned by Hit on each triggered hit —
	// the site treats it as the failure of the operation it guards.
	Err error

	// Panic, when non-nil, makes Hit panic with this value, modeling a
	// crash inside the guarded operation.
	Panic any

	// Exit, when true, terminates the whole process with ExitCode the
	// instant the action triggers — a deterministic stand-in for
	// SIGKILL at an exact program point. Chaos harnesses arm it (via
	// ArmFromEnv in the binary under test) to kill a coordinator
	// between two specific state transitions.
	Exit     bool
	ExitCode int

	// Delay, when positive, makes Hit sleep before returning (or
	// panicking/exiting), modeling a stuck or slow operation.
	Delay time.Duration

	// Times bounds how many hits trigger the action: n > 0 means the
	// first n triggering hits only, 0 means every hit until disarmed.
	Times int

	// Skip leaves the first Skip hits untriggered, so an action can
	// fire on exactly the Nth hit (Skip: N-1, Times: 1) — e.g. "exit
	// the process at the 7th file commit".
	Skip int
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

// Disarm removes the point at name, if armed.
func Disarm(name string) {
	mu.Lock()
	defer mu.Unlock()
	delete(points, name)
	armed.Store(len(points) > 0)
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
	if p.hits <= p.action.Skip {
		mu.Unlock()
		return nil // still inside the skip window
	}
	if p.action.Times > 0 && p.fired >= p.action.Times {
		mu.Unlock()
		return nil // budget exhausted: inert until disarmed/re-armed
	}
	p.fired++
	a := p.action
	mu.Unlock()

	if a.Delay > 0 {
		time.Sleep(a.Delay)
	}
	if a.Exit {
		fmt.Fprintf(os.Stderr, "failpoint %q: exiting process (code %d)\n", name, a.ExitCode)
		osExit(a.ExitCode)
	}
	if a.Panic != nil {
		panic(fmt.Sprintf("failpoint %q: %v", name, a.Panic))
	}
	return a.Err
}

// osExit is swapped out by tests so Exit actions can be asserted
// without terminating the test binary.
var osExit = os.Exit

// ArmFromEnv arms every failpoint named in the environment variable
// env (conventionally PAIR_FAILPOINTS). An empty or unset variable is
// a no-op. The spec grammar is a semicolon-separated list of
//
//	name=kind[:arg][,key=val...]
//
// with kinds
//
//	error[:message]  — Hit returns an error
//	panic[:message]  — Hit panics
//	exit[:code]      — the process exits (SIGKILL stand-in)
//	delay:duration   — Hit sleeps (time.ParseDuration syntax)
//
// and optional modifiers times=N (trigger budget) and skip=N (inert
// hits before the first trigger), e.g.
//
//	PAIR_FAILPOINTS='campaign/checkpoint/rename=exit:3,skip=6,times=1'
//
// kills the process at exactly the 7th atomic file commit (a checkpoint
// or a fleet job file). Binaries call this once at startup; it exists
// so chaos harnesses can crash a real process at a deterministic
// program point.
func ArmFromEnv(env string) error {
	return ArmFromSpec(os.Getenv(env))
}

// ArmFromSpec arms failpoints from a spec string (see ArmFromEnv for
// the grammar). An empty spec is a no-op.
func ArmFromSpec(spec string) error {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil
	}
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, rest, ok := strings.Cut(entry, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" || rest == "" {
			return fmt.Errorf("failpoint: malformed spec entry %q (want name=kind[:arg][,key=val...])", entry)
		}
		parts := strings.Split(rest, ",")
		a, err := parseKind(strings.TrimSpace(parts[0]))
		if err != nil {
			return fmt.Errorf("failpoint %q: %w", name, err)
		}
		for _, mod := range parts[1:] {
			key, val, ok := strings.Cut(strings.TrimSpace(mod), "=")
			if !ok {
				return fmt.Errorf("failpoint %q: malformed modifier %q (want key=val)", name, mod)
			}
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return fmt.Errorf("failpoint %q: modifier %s wants a non-negative integer, got %q", name, key, val)
			}
			switch key {
			case "times":
				a.Times = n
			case "skip":
				a.Skip = n
			default:
				return fmt.Errorf("failpoint %q: unknown modifier %q (want times or skip)", name, key)
			}
		}
		Arm(name, a)
	}
	return nil
}

// parseKind parses the kind[:arg] head of a spec entry.
func parseKind(head string) (Action, error) {
	kind, arg, hasArg := strings.Cut(head, ":")
	switch kind {
	case "error":
		msg := "injected by failpoint spec"
		if hasArg && arg != "" {
			msg = arg
		}
		return Action{Err: errors.New(msg)}, nil
	case "panic":
		msg := "injected by failpoint spec"
		if hasArg && arg != "" {
			msg = arg
		}
		return Action{Panic: msg}, nil
	case "exit":
		code := 3
		if hasArg && arg != "" {
			n, err := strconv.Atoi(arg)
			if err != nil {
				return Action{}, fmt.Errorf("exit wants an integer code, got %q", arg)
			}
			code = n
		}
		return Action{Exit: true, ExitCode: code}, nil
	case "delay":
		if !hasArg || arg == "" {
			return Action{}, fmt.Errorf("delay wants a duration argument")
		}
		d, err := time.ParseDuration(arg)
		if err != nil || d < 0 {
			return Action{}, fmt.Errorf("delay wants a non-negative duration, got %q", arg)
		}
		return Action{Delay: d}, nil
	default:
		return Action{}, fmt.Errorf("unknown action kind %q (want error, panic, exit or delay)", kind)
	}
}
