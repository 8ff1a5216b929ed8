package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"pair/internal/campaign"
	"pair/internal/core"
	"pair/internal/ecc"
	"pair/internal/faults"
	"pair/internal/reliability"
	"pair/internal/schemes"
)

// ExtendedSchemes returns the commodity set plus the two rank-level
// schemes (their natural ECC-DIMM organization), for the experiments
// where the cross-organization comparison is meaningful per 64B line.
// The composition lives in the registry's "extended" set.
func ExtendedSchemes() []ecc.Scheme {
	return schemes.MustBuildSet("extended")
}

// F8ScrubSweepCtx varies the scrub interval in the lifetime model — the
// knob that controls how long transient faults linger and can pair with
// permanent ones — as cancellable, checkpointable campaigns; each
// interval runs under an h=<n> campaign sublabel since the scheme set
// repeats across intervals.
func F8ScrubSweepCtx(ctx context.Context, schemes []ecc.Scheme, devices int, opts campaign.Options) (*Table, error) {
	intervals := []float64{1, 6, 24, 168} // hours
	t := &Table{
		Title:  fmt.Sprintf("F8: 7-year failure probability vs scrub interval (%d ranks; transient FIT x20 to expose the knob)", devices),
		Header: []string{"scheme"},
	}
	for _, h := range intervals {
		t.Header = append(t.Header, fmt.Sprintf("%gh", h))
	}
	// Amplify the transient rate so pairing is observable at feasible
	// population sizes; the relative effect of scrubbing is what the
	// figure shows.
	fits := faults.DefaultFITTable()
	for i := range fits {
		if fits[i].Kind == faults.TransientBit {
			fits[i].Rate *= 20
		}
	}
	for _, s := range schemes {
		row := []string{s.Name()}
		for _, h := range intervals {
			r, err := reliability.RunLifetimeCtx(ctx, reliability.LifetimeConfig{
				Scheme:     s,
				Devices:    devices,
				ScrubHours: h,
				Seed:       CampaignSeed,
				FITs:       fits,
			}, opts.Sublabel(fmt.Sprintf("h=%g", h)))
			if err != nil {
				return nil, err
			}
			row = append(row, sci(r.FailProb()))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"longer scrub intervals let transient bits linger and pair with permanent faults",
		"at field-realistic rates the curves are flat: transient pairing is negligible against permanent-fault hazards — itself a finding (scrubbing buys little for per-access in-DRAM codes)")
	return t, nil
}

// F9DDR5Ctx compares PAIR across DRAM generations: DDR4 x16 BL8 (one
// symbol per pin) against DDR5 x16 BL16 (two symbols per pin), at both
// expansion levels, under the pin-fault and inherent-cell hazards, as
// cancellable, checkpointable campaigns. The scheme/organization
// campaign labels already distinguish the four cases (name and burst
// length differ).
func F9DDR5Ctx(ctx context.Context, trials int, opts campaign.Options) (*Table, error) {
	t := &Table{
		Title:  "F9: PAIR across DRAM generations (pin-fault fail rate / inherent 2-cell fail rate)",
		Header: []string{"device", "code", "t", "pin fault", "2-cell"},
	}
	cases := []struct {
		label, spec string
	}{
		{"DDR4 x16 BL8", "pair-base"},
		{"DDR4 x16 BL8", "pair"},
		{"DDR5 x16 BL16", "pair-base@ddr5x16"},
		{"DDR5 x16 BL16", "pair@ddr5x16"},
	}
	for _, c := range cases {
		s := schemes.MustNew(c.spec).(*core.Scheme)
		pin, err := reliability.CoverageCtx(ctx, s, "pin", trials, CampaignSeed, func(rng *rand.Rand, st *ecc.Stored) {
			ecc.InjectAccessFault(rng, st, faults.PermanentPin, -1)
		}, nil, opts)
		if err != nil {
			return nil, err
		}
		cells, err := reliability.CoverageCtx(ctx, s, "2cell", trials, CampaignSeed, func(rng *rand.Rand, st *ecc.Stored) {
			chip := rng.Intn(st.Org.ChipsPerRank)
			ecc.InjectAccessFault(rng, st, faults.PermanentCell, chip)
			ecc.InjectAccessFault(rng, st, faults.PermanentCell, chip)
		}, nil, opts)
		if err != nil {
			return nil, err
		}
		t.AddRow(c.label,
			fmt.Sprintf("RS(%d,%d)", s.CodewordLength(), s.CodewordLength()-s.Config().BaseParity-s.Config().Expansion),
			fmt.Sprintf("%d", s.T()),
			sci(pin.Rates.Fail()),
			sci(cells.Rates.Fail()),
		)
	}
	t.Notes = append(t.Notes,
		"a BL16 pin carries two symbols, so DDR5 pin faults need the expanded t=2 code — the expandability story across generations")
	return t, nil
}

// T5WidthsCtx shows the PAIR design space across device widths: the
// codeword shrinks with the pin count, so the fixed two-symbol parity
// floor costs proportionally more on narrow devices — the economics
// behind PAIR's focus on x16 (and the abstract's "latest DRAM model").
// Its campaigns are cancellable and checkpointable (pin counts
// distinguish the campaign labels).
func T5WidthsCtx(ctx context.Context, trials int, opts campaign.Options) (*Table, error) {
	t := &Table{
		Title:  "T5: PAIR across device widths (expanded config, t=2)",
		Header: []string{"device", "chips/rank", "code", "storage ovh", "pin-fault fail", "2-cell fail"},
	}
	cases := []struct {
		label, spec string
	}{
		{"DDR4 x4", "pair@ddr4x4"},
		{"DDR4 x8", "pair@ddr4x8"},
		{"DDR4 x16", "pair"},
		{"DDR5 x16", "pair@ddr5x16"},
	}
	for _, c := range cases {
		s := schemes.MustNew(c.spec).(*core.Scheme)
		pin, err := reliability.CoverageCtx(ctx, s, "pin", trials, CampaignSeed, func(rng *rand.Rand, st *ecc.Stored) {
			ecc.InjectAccessFault(rng, st, faults.PermanentPin, -1)
		}, nil, opts)
		if err != nil {
			return nil, err
		}
		cells, err := reliability.CoverageCtx(ctx, s, "2cell", trials, CampaignSeed, func(rng *rand.Rand, st *ecc.Stored) {
			chip := rng.Intn(st.Org.ChipsPerRank)
			ecc.InjectAccessFault(rng, st, faults.PermanentCell, chip)
			ecc.InjectAccessFault(rng, st, faults.PermanentCell, chip)
		}, nil, opts)
		if err != nil {
			return nil, err
		}
		t.AddRow(c.label,
			fmt.Sprintf("%d", s.Org().ChipsPerRank),
			fmt.Sprintf("RS(%d,%d)", s.CodewordLength(), s.CodewordLength()-4),
			pct(s.StorageOverhead()),
			sci(pin.Rates.Fail()),
			sci(cells.Rates.Fail()),
		)
	}
	t.Notes = append(t.Notes,
		"the 4-symbol parity floor is 100% overhead on x4 but 25% on x16: pin-aligned RS wants wide devices")
	return t, nil
}

// F12RepairCtx compares 7-year failure probability without and with a
// post-package-repair budget. Only *detected* failures can trigger
// repair, so schemes that convert failures into DUEs (PAIR) benefit
// fully while miscorrecting schemes (IECC) and alias-prone ones (XED)
// keep dying silently — the operational argument for low SDC. Its
// campaigns are cancellable and checkpointable; the base and PPR
// populations run under distinct campaign sublabels since they share
// scheme, devices and seed.
func F12RepairCtx(ctx context.Context, schemes []ecc.Scheme, devices int, opts campaign.Options) (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("F12: 7-year failure probability without / with post-package repair (budget 4; %d ranks)", devices),
		Header: []string{"scheme", "no repair", "with PPR", "improvement", "repairs used", "residual SDC"},
	}
	for _, s := range schemes {
		base, err := reliability.RunLifetimeCtx(ctx, reliability.LifetimeConfig{
			Scheme: s, Devices: devices, Seed: CampaignSeed,
		}, opts.Sublabel("base"))
		if err != nil {
			return nil, err
		}
		ppr, err := reliability.RunLifetimeCtx(ctx, reliability.LifetimeConfig{
			Scheme: s, Devices: devices, Seed: CampaignSeed, RepairBudget: 4,
		}, opts.Sublabel("ppr"))
		if err != nil {
			return nil, err
		}
		imp := "-"
		if ppr.FailProb() > 0 {
			imp = fmt.Sprintf("%.1fx", base.FailProb()/ppr.FailProb())
		} else if base.FailProb() > 0 {
			imp = ">max"
		}
		t.AddRow(s.Name(), sci(base.FailProb()), sci(ppr.FailProb()), imp,
			fmt.Sprintf("%d", ppr.Repairs), sci(ppr.SDCProb()))
	}
	t.Notes = append(t.Notes,
		"PPR can only act on detected (DUE) failures; silent corruption is unrepairable by construction")
	return t, nil
}

// F10SparingCtx quantifies the pin-sparing (erasure) extension: a device
// with d dead pins on one chip, with and without the repair map, under
// an additional fresh cell error per access. Its campaigns are
// cancellable and checkpointable; each dead-pin count runs under a
// dead=<n> campaign sublabel since the schemes and labels repeat across
// counts.
func F10SparingCtx(ctx context.Context, trials int, opts campaign.Options) (*Table, error) {
	t := &Table{
		Title:  "F10: decode outcome with dead pins, plain vs spared (erasure) decoding, +1 fresh cell",
		Header: []string{"dead pins", "plain fail", "spared fail"},
	}
	for _, dead := range []int{0, 1, 2} {
		plain := schemes.MustNew("pair")
		pins := make([]int, dead)
		spareList := ""
		for i := range pins {
			pins[i] = 2 + 5*i
			if i > 0 {
				spareList += "."
			}
			spareList += fmt.Sprintf("%d", pins[i])
		}
		// Built through the spec grammar — the same string a CLI user
		// would pass (dead=2 is "pair:spare=2.7").
		sparedScheme := schemes.MustNew("pair:spare=" + spareList)
		inject := func(rng *rand.Rand, st *ecc.Stored) {
			ci := st.Chips[0]
			for _, p := range pins {
				ci.Data.SetPinSymbolPart(p, 0, ci.Data.PinSymbolPart(p, 0)^byte(1+rng.Intn(255)))
			}
			ecc.InjectAccessFault(rng, st, faults.PermanentCell, 0)
		}
		dOpts := opts.Sublabel(fmt.Sprintf("dead=%d", dead))
		p, err := reliability.CoverageCtx(ctx, plain, "plain", trials, CampaignSeed, inject, nil, dOpts)
		if err != nil {
			return nil, err
		}
		sp, err := reliability.CoverageCtx(ctx, sparedScheme, "spared", trials, CampaignSeed, inject, nil, dOpts)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", dead), sci(p.Rates.Fail()), sci(sp.Rates.Fail()))
	}
	t.Notes = append(t.Notes,
		"sparing turns known-bad pins into erasures: budget 2*errors + erasures <= 4, so two dead pins + one fresh error still decode")
	return t, nil
}
