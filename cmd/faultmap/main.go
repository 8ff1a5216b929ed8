// Command faultmap visualizes how one physical fault maps onto ECC
// codeword symbols under each scheme's symbolization — the intuition
// behind PAIR in one terminal screen. For a chosen fault pattern it
// prints the chip access as a pins x beats grid with corrupted bits
// marked, then shows which pin-aligned symbols (PAIR) and beat-aligned
// symbols (DUO) the pattern touches.
//
// Usage:
//
//	faultmap -fault pin
//	faultmap -fault pin-burst -len 4
//	faultmap -fault cell -seed 3
//	faultmap -scheme pair@ddr5x16 -fault pin    # BL16 grid, expanded code
//	faultmap -faults retention:pop=0.02        # rank-wide scenario map
//	faultmap -list-faults                      # registered scenarios
//
// The -scheme spec (name[@org][:key=val,...], see -list-schemes) selects
// the organization whose chip-access geometry the grid shows and, for
// PAIR schemes, the correction budget t quoted in the verdict line.
//
// With -faults, the single-chip -fault mode is replaced by a rank-wide
// scenario map: the registered fault scenario (see -list-faults) corrupts
// one access of every chip in the rank, each chip's data burst is
// rendered (or reported clean), and the verdict quotes the worst chip —
// per-chip-access codes live or die on their single worst chip.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"pair/internal/core"
	"pair/internal/dram"
	"pair/internal/faults"
	"pair/internal/memsim"
	"pair/internal/schemes"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args and renders the fault
// map to stdout, returning the exit code.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("faultmap", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		kind       = fs.String("fault", "pin", "cell|pin|lane|beat|word|pin-burst|beat-burst")
		blen       = fs.Int("len", 4, "burst length for *-burst faults")
		seed       = fs.Int64("seed", 1, "RNG seed")
		spec       = fs.String("scheme", "pair", "scheme spec, name[@org][:key=val,...], selecting the organization shown")
		listSchs   = fs.Bool("list-schemes", false, "list registered schemes, spec grammar, organizations and sets, then exit")
		scenario   = fs.String("faults", "", "fault scenario spec (name[:key=val,...] or compose(...)): render a rank-wide scenario map instead of a single-chip -fault")
		listFaults = fs.Bool("list-faults", false, "list registered fault scenarios, the spec grammar and options, then exit")
		listProfs  = fs.Bool("list-profiles", false, "list registered memory profiles (the timing simulator's -profile specs), then exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Output that cannot be written (a full disk, a closed pipe) fails
	// the run.
	out := bufio.NewWriter(stdout)
	defer func() {
		if err := out.Flush(); err != nil && code == 0 {
			fmt.Fprintln(stderr, "faultmap: stdout:", err)
			code = 1
		}
	}()
	if *listSchs {
		fmt.Fprint(out, schemes.ListText())
		return 0
	}
	if *listFaults {
		fmt.Fprint(out, faults.ListFaultsText())
		return 0
	}
	if *listProfs {
		fmt.Fprint(out, memsim.ListProfilesText())
		return 0
	}

	scheme, err := schemes.New(*spec)
	if err != nil {
		fmt.Fprintln(stderr, "faultmap:", err)
		return 1
	}
	org := scheme.Org()
	pairT := 2
	if ps, ok := scheme.(*core.Scheme); ok {
		pairT = ps.T()
	}
	rng := rand.New(rand.NewSource(*seed))

	if *scenario != "" {
		sc, err := faults.NewScenario(*scenario)
		if err != nil {
			fmt.Fprintln(stderr, "faultmap:", err)
			return 1
		}
		return runScenarioMap(out, sc, org, pairT, rng)
	}

	chip := dram.Chip{Data: dram.NewRegion(org.Pins, org.BurstLen)}
	mask := chip.Data

	var flips int
	switch *kind {
	case "cell":
		flips = faults.InjectNCells(rng, &chip, 1)
	case "pin":
		flips = faults.InjectPin(rng, &chip)
	case "lane":
		flips = faults.InjectLane(rng, mask)
	case "beat":
		flips = faults.InjectBeat(rng, mask)
	case "word":
		flips = faults.InjectWord(rng, &chip)
	case "pin-burst":
		flips = faults.InjectPinBurst(rng, mask, *blen)
	case "beat-burst":
		flips = faults.InjectBeatBurst(rng, mask, *blen)
	default:
		fmt.Fprintf(stderr, "faultmap: unknown fault %q\n", *kind)
		return 1
	}

	fmt.Fprintf(out, "fault %q on a x%d BL%d chip access (%d bits flipped)\n\n", *kind, org.Pins, org.BurstLen, flips)
	fmt.Fprintf(out, "        beats 0..%-2d       PAIR symbol (pin-aligned)\n", org.BurstLen-1)
	renderGrid(out, mask, org)

	pairSyms, duoSyms := countSyms(mask, org)
	fmt.Fprintf(out, "\nsymbols corrupted:  PAIR (pin-aligned) = %d   DUO (beat-aligned) = %d\n", pairSyms, duoSyms)
	fmt.Fprintf(out, "correctable:        PAIR t=%d: %-5v        DUO t=1: %v\n", pairT, pairSyms <= pairT, duoSyms <= 1)
	return 0
}

// renderGrid prints the pins x beats corruption grid of one chip access.
func renderGrid(w io.Writer, mask dram.Region, org dram.Organization) {
	for pin := 0; pin < org.Pins; pin++ {
		var row strings.Builder
		touched := false
		for beat := 0; beat < org.BurstLen; beat++ {
			if mask.Get(pin, beat) {
				row.WriteByte('X')
				touched = true
			} else {
				row.WriteByte('.')
			}
		}
		marker := ""
		if touched {
			marker = fmt.Sprintf("  <- symbol %d corrupted", pin)
		}
		fmt.Fprintf(w, "DQ%-2d    %s%s\n", pin, row.String(), marker)
	}
}

// countSyms counts the corrupted pin-aligned (PAIR) and beat-aligned
// (DUO) symbols of one chip-access mask. PAIR's symbols are the bytes of
// the mask's pin-major view (a BL16 pin carries two, so a pin fault on
// DDR5 touches two pin-aligned symbols, not one); DUO's are the mask's
// own bytes, which exist only when a beat is whole bytes.
func countSyms(mask dram.Region, org dram.Organization) (pairSyms, duoSyms int) {
	pins := dram.NewRegion(org.BurstLen, org.Pins)
	dram.Transpose(pins, mask)
	for _, sym := range pins.Bits {
		if sym != 0 {
			pairSyms++
		}
	}
	if org.Pins%8 == 0 {
		for _, sym := range mask.Bits {
			if sym != 0 {
				duoSyms++
			}
		}
	}
	return pairSyms, duoSyms
}

// runScenarioMap renders a registered fault scenario across one access of
// every chip in the rank. Each chip exposes only its data burst — the
// shared chip-access geometry every scheme symbolizes — so the map shows
// the fault physics, not one scheme's redundancy layout. The verdict
// quotes the worst corrupted chip: per-chip-access codes decode each chip
// independently, so the rank survives only if its worst chip does.
func runScenarioMap(stdout io.Writer, sc faults.Scenario, org dram.Organization, pairT int, rng *rand.Rand) int {
	chips, _ := dram.NewChips(org.ChipsPerRank, dram.Shape{Pins: org.Pins, Beats: org.BurstLen})
	flips := sc.Inject(rng, chips)
	fmt.Fprintf(stdout, "scenario %q on a %d-chip x%d BL%d rank access (%d bits flipped)\n",
		sc.Spec(), org.ChipsPerRank, org.Pins, org.BurstLen, flips)

	worstPair, worstDuo := 0, 0
	for i := range chips {
		mask := chips[i].Data
		if mask.PopCount() == 0 {
			fmt.Fprintf(stdout, "\nchip %d: clean\n", i)
			continue
		}
		fmt.Fprintf(stdout, "\nchip %d:\n", i)
		fmt.Fprintf(stdout, "        beats 0..%-2d       PAIR symbol (pin-aligned)\n", org.BurstLen-1)
		renderGrid(stdout, mask, org)
		pairSyms, duoSyms := countSyms(mask, org)
		fmt.Fprintf(stdout, "symbols corrupted:  PAIR (pin-aligned) = %d   DUO (beat-aligned) = %d\n", pairSyms, duoSyms)
		if pairSyms > worstPair {
			worstPair = pairSyms
		}
		if duoSyms > worstDuo {
			worstDuo = duoSyms
		}
	}
	fmt.Fprintf(stdout, "\nworst chip:         PAIR (pin-aligned) = %d   DUO (beat-aligned) = %d\n", worstPair, worstDuo)
	fmt.Fprintf(stdout, "correctable:        PAIR t=%d: %-5v        DUO t=1: %v\n", pairT, worstPair <= pairT, worstDuo <= 1)
	return 0
}
