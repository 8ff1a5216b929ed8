package schemes

import (
	"fmt"
	"strconv"
	"strings"

	"pair/internal/core"
	"pair/internal/dram"
	"pair/internal/ecc"
	"pair/internal/registry"
)

// init registers the built-in organizations, the study's scheme family
// and the presentation sets, in presentation order. Everything below is
// plain registration — adding a scheme variant here is the only step
// needed for it to reach the facade, the campaigns, every experiment
// table and all five CLIs.
func init() {
	registerOrgs()
	registerSchemes()
	registerSets()
}

func registerOrgs() {
	registerOrg(OrgEntry{ID: "ddr4x16", Description: "4x x16 BL8 commodity 64-bit rank (the study's default)", Org: dram.DDR4x16()})
	registerOrg(OrgEntry{ID: "ddr4x8", Description: "8x x8 BL8 commodity rank", Org: dram.DDR4x8()})
	registerOrg(OrgEntry{ID: "ddr4x4", Description: "16x x4 BL8 commodity rank", Org: dram.DDR4x4()})
	registerOrg(OrgEntry{ID: "ddr5x16", Description: "2x x16 BL16 DDR5 32-bit subchannel", Org: dram.DDR5x16()})
	registerOrg(OrgEntry{ID: "ddr4x8ecc", Description: "9x x8 BL8 ECC DIMM (72-bit bus)", Org: dram.DDR4x8ECC()})
}

// noOpts wraps an option-less constructor as an Entry hook.
func noOpts(build func(org dram.Organization) ecc.Scheme) func(dram.Organization, map[string]string) (ecc.Scheme, error) {
	return func(org dram.Organization, _ map[string]string) (ecc.Scheme, error) {
		return build(org), nil
	}
}

// pairOptions documents the option keys both PAIR entries accept.
var pairOptions = []registry.OptionDoc{
	{Key: "base", Doc: "base parity symbols (default 2)"},
	{Key: "exp", Doc: "expansion symbols stored in spare columns (pair: 2, pair-base: 0)"},
	{Key: "lat", Doc: "in-die decode latency in ns (default 2.0)"},
	{Key: "spare", Doc: "dot-separated known-bad DQ pins decoded as erasures (spared-PAIR), e.g. spare=3.7"},
	{Key: "chip", Doc: "chip index the spared pins live on (default 0; requires spare)"},
}

// pairHook builds a PAIR scheme from the entry defaults plus spec
// options, wrapping with core.WithSparedPins when a spare list is given.
// Note the reported Name() follows the effective expansion level
// ("pair-base" at exp=0, "pair" otherwise), not the entry ID.
func pairHook(defaults core.Config) func(dram.Organization, map[string]string) (ecc.Scheme, error) {
	return func(org dram.Organization, opts map[string]string) (ecc.Scheme, error) {
		cfg := defaults
		if v, ok := opts["base"]; ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, fmt.Errorf("option base: %w", err)
			}
			cfg.BaseParity = n
		}
		if v, ok := opts["exp"]; ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, fmt.Errorf("option exp: %w", err)
			}
			cfg.Expansion = n
		}
		if v, ok := opts["lat"]; ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return nil, fmt.Errorf("option lat: %w", err)
			}
			cfg.DecodeLatencyNS = f
		}
		s, err := core.New(org, cfg)
		if err != nil {
			return nil, err
		}
		spare, spared := opts["spare"]
		if _, hasChip := opts["chip"]; hasChip && !spared {
			return nil, fmt.Errorf("option chip requires option spare")
		}
		if !spared {
			return s, nil
		}
		pins, err := parsePinList(spare)
		if err != nil {
			return nil, err
		}
		chip := 0
		if v, ok := opts["chip"]; ok {
			chip, err = strconv.Atoi(v)
			if err != nil {
				return nil, fmt.Errorf("option chip: %w", err)
			}
		}
		return s.WithSparedPins(map[int][]int{chip: pins})
	}
}

// parsePinList parses a dot-separated pin list ("3.7" -> [3 7]); the
// empty string is an empty list (a spared wrapper with no erasures).
func parsePinList(v string) ([]int, error) {
	pins := []int{}
	if v == "" {
		return pins, nil
	}
	for _, part := range strings.Split(v, ".") {
		p, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("option spare: bad pin %q (want dot-separated pin indices)", part)
		}
		pins = append(pins, p)
	}
	return pins, nil
}

func registerSchemes() {
	commodity := []string{"ddr4x16", "ddr4x8", "ddr4x4", "ddr5x16"}

	register(Entry{
		ID:          "none",
		Description: "unprotected baseline",
		Codec:       "-", Granularity: "-", Alignment: "-", Corrects: "0", BusChange: "none",
		Orgs:       append(append([]string{}, commodity...), "ddr4x8ecc"),
		DefaultOrg: "ddr4x16",
		New:        noOpts(func(org dram.Organization) ecc.Scheme { return ecc.NewNone(org) }),
	})
	register(Entry{
		ID:          "iecc",
		Description: "conventional in-DRAM ECC: per-access SEC Hamming",
		Codec:       "Hamming (136,128) SEC", Granularity: "chip access (128b)", Alignment: "bit",
		Corrects: "1 bit", BusChange: "none",
		Orgs:       commodity,
		DefaultOrg: "ddr4x16",
		New:        noOpts(func(org dram.Organization) ecc.Scheme { return ecc.NewIECC(org) }),
	})
	register(Entry{
		ID:          "xed",
		Description: "on-die detection + rank-XOR correction (commodity adaptation)",
		Codec:       "on-die detect + rank XOR", Granularity: "chip access / rank", Alignment: "bit / chip",
		Corrects: "1 chip*", BusChange: "+1 wr/wr",
		NoDBI:      true, // catch-word signaling occupies the DBI encoding freedom
		Orgs:       []string{"ddr4x16", "ddr4x8", "ddr5x16"},
		DefaultOrg: "ddr4x16",
		New:        noOpts(func(org dram.Organization) ecc.Scheme { return ecc.NewXED(org) }),
	})
	register(Entry{
		ID:          "duo",
		Description: "on-die redundancy forwarded to a controller-side RS over beat-aligned symbols",
		Codec:       "RS(18,16) GF(256)", Granularity: "chip access", Alignment: "beat (byte)",
		Corrects: "1 sym", BusChange: "BL8->BL9",
		// The forwarded-redundancy region holds two byte symbols per
		// access, which needs a 16-pin extension beat: x16 devices only.
		Orgs:       []string{"ddr4x16", "ddr5x16"},
		DefaultOrg: "ddr4x16",
		New:        noOpts(func(org dram.Organization) ecc.Scheme { return ecc.NewDUO(org) }),
	})
	register(Entry{
		ID:          "duo-rank",
		Description: "original nine-chip ECC-DIMM DUO: rank-level RS, chip-erasure retry",
		Codec:       "RS(81,64) GF(256)", Granularity: "rank access", Alignment: "beat (byte)",
		Corrects: "8 sym", BusChange: "BL8->BL9 + 9th chip",
		Orgs:       []string{"ddr4x8ecc"},
		DefaultOrg: "ddr4x8ecc",
		New:        noOpts(func(org dram.Organization) ecc.Scheme { return ecc.NewDUORank(org) }),
	})
	register(Entry{
		ID:          "pair-base",
		Description: "PAIR without expansion: pin-aligned RS, t=1",
		Codec:       "RS(18,16) GF(256)", Granularity: "chip access", Alignment: "pin",
		Corrects: "1 sym", BusChange: "none",
		Orgs:       commodity,
		DefaultOrg: "ddr4x16",
		Options:    pairOptions,
		New:        pairHook(core.BaseConfig()),
	})
	register(Entry{
		ID:          "pair",
		Description: "headline PAIR: pin-aligned expandable RS, t=2",
		Codec:       "RS(20,16) expandable", Granularity: "chip access", Alignment: "pin",
		Corrects: "2 sym", BusChange: "none",
		Orgs:       commodity,
		DefaultOrg: "ddr4x16",
		Options:    pairOptions,
		New:        pairHook(core.DefaultConfig()),
	})
	register(Entry{
		ID:          "secded",
		Description: "rank-level Hsiao SEC-DED on the nine-chip ECC DIMM",
		Codec:       "Hsiao (72,64) SEC-DED", Granularity: "beat (64b)", Alignment: "bit",
		Corrects: "1 bit", BusChange: "9th chip",
		Orgs:       []string{"ddr4x8ecc"},
		DefaultOrg: "ddr4x8ecc",
		New:        noOpts(func(org dram.Organization) ecc.Scheme { return ecc.NewSECDED(org) }),
	})
}

func registerSets() {
	registerSet(SetEntry{
		ID:          "eval",
		Description: "the facade's presentation set (AllSchemes)",
		Specs:       []string{"none", "iecc", "xed", "duo", "pair-base", "pair"},
	})
	registerSet(SetEntry{
		ID:          "commodity",
		Description: "x16 reliability evaluation set (F1/F2, T2, F3, F7, F8, F12)",
		Specs:       []string{"iecc", "xed", "duo", "pair-base", "pair"},
	})
	registerSet(SetEntry{
		ID:          "perf",
		Description: "performance comparison set (F4/F4b/F4c, F5)",
		Specs:       []string{"none", "iecc", "xed", "duo", "pair"},
	})
	registerSet(SetEntry{
		ID:          "extended",
		Description: "commodity set plus the rank-level ECC-DIMM schemes (T2X, F3X)",
		Specs:       []string{"iecc", "xed", "duo", "pair-base", "pair", "secded", "duo-rank"},
	})
	registerSet(SetEntry{
		ID:          "t1",
		Description: "configuration-table presentation order (T1)",
		Specs:       []string{"none", "iecc", "secded", "xed", "duo", "pair-base", "pair"},
	})
	registerSet(SetEntry{
		ID:          "energy",
		Description: "bus-energy proxy comparison set (T4)",
		Specs:       []string{"none", "iecc", "xed", "duo", "duo-rank", "pair"},
	})
}
