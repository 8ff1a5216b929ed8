package memsim

import (
	"fmt"
	"strconv"

	"pair/internal/registry"
)

// Profile specs use the grammar of internal/registry without an
// organization or composition:
//
//	name[:key=val,...]
//
// where name is a registered profile ID and the options override the
// builtin defaults. Examples:
//
//	ddr4-2400
//	ddr5-4800:policy=closed,channels=2
//	lpddr5-6400:refresh=all-bank
//
// A built profile's Spec is the canonical form of its spec, so experiment
// labels embedding a spec stay stable.

// profileOptions documents the option keys every profile accepts.
var profileOptions = []registry.OptionDoc{
	{Key: "policy", Doc: "open|closed — row-buffer management (closed auto-precharges after every access)"},
	{Key: "channels", Doc: "1..16 — independent channels; cache lines interleave across channels x subchannels"},
	{Key: "refresh", Doc: "all-bank|same-bank — REFab blackout vs staggered per-bank REFsb windows"},
}

// NewProfile parses a spec string and builds the profile it describes:
// the registered defaults with the option overrides applied, validated.
// Errors enumerate the valid profile IDs or option keys.
func NewProfile(spec string) (*Profile, error) {
	s, err := registry.Parse(spec)
	if err != nil {
		return nil, fmt.Errorf("memsim: %w", err)
	}
	if s.Org != "" {
		return nil, fmt.Errorf("memsim: profile spec %q names organization %q; profiles take none", spec, s.Org)
	}
	e, err := profiles.Lookup(s.ID)
	if err != nil {
		return nil, err
	}
	if err := profiles.CheckOptions(s.ID, profileOptions, s.Options); err != nil {
		return nil, err
	}
	p := e.New()
	for _, k := range s.Keys() {
		v := s.Options[k]
		switch k {
		case "policy":
			switch v {
			case "open":
				p.Policy = OpenPage
			case "closed":
				p.Policy = ClosedPage
			default:
				return nil, fmt.Errorf("memsim: profile option policy=%q (want open or closed)", v)
			}
		case "channels":
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 || n > 16 {
				return nil, fmt.Errorf("memsim: profile option channels=%q (want 1..16)", v)
			}
			p.Channels = n
		case "refresh":
			switch v {
			case "all-bank":
				p.Refresh = RefreshAllBank
			case "same-bank":
				p.Refresh = RefreshSameBank
			default:
				return nil, fmt.Errorf("memsim: profile option refresh=%q (want all-bank or same-bank)", v)
			}
		}
	}
	p.spec = s.String()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// MustProfile is NewProfile, panicking on error; for specs known at
// compile time.
func MustProfile(spec string) *Profile {
	p, err := NewProfile(spec)
	if err != nil {
		panic(err)
	}
	return p
}
