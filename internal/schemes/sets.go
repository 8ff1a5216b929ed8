package schemes

import (
	"fmt"

	"pair/internal/ecc"
	"pair/internal/registry"
)

// SetEntry is a named, ordered list of scheme specs — the presentation
// sets the experiments iterate (the paper compares scheme *families*, so
// the sets live in the registry next to the schemes themselves).
type SetEntry struct {
	ID          string
	Description string
	Specs       []string
}

var setReg = registry.New[*SetEntry]("schemes", "scheme set")

// registerSet adds a named scheme set; it panics on an empty set or a
// spec that does not build (registration runs from init functions).
func registerSet(e SetEntry) {
	if len(e.Specs) == 0 {
		panic(fmt.Sprintf("schemes: set %q needs at least one spec", e.ID))
	}
	if _, err := Build(e.Specs); err != nil {
		panic(fmt.Sprintf("schemes: set %q: %v", e.ID, err))
	}
	setReg.Add(e.ID, &e)
}

// SetByID returns the specs of a registered set.
func SetByID(id string) (*SetEntry, error) { return setReg.Lookup(id) }

// BuildSet constructs every scheme of a registered set, in order.
func BuildSet(id string) ([]ecc.Scheme, error) {
	e, err := SetByID(id)
	if err != nil {
		return nil, err
	}
	return Build(e.Specs)
}

// MustBuildSet is BuildSet, panicking on error; registration already
// proved every member builds.
func MustBuildSet(id string) []ecc.Scheme {
	s, err := BuildSet(id)
	if err != nil {
		panic(err)
	}
	return s
}
