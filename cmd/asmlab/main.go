// Command asmlab is an attack-exploration lab: it loads a victim written
// as a textual script (ISA assembly plus `;;` region/init/symbol
// directives — see attack/victim.ParseScript), installs a MicroScope
// recipe against it, and reports what each replay window exposed.
//
// Example:
//
//	go run ./cmd/asmlab -script examples/asmlab/victim.s \
//	    -handle handle -probe probe -lines 4 -replays 5
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"microscope/attack/microscope"
	"microscope/attack/platform"
	"microscope/attack/victim"
	"microscope/sim/cache"
	"microscope/sim/cpu"
	"microscope/sim/isa"
	"microscope/sim/mem"
)

func main() {
	script := flag.String("script", "", "victim script file")
	handle := flag.String("handle", "handle", "replay-handle symbol")
	pivot := flag.String("pivot", "", "pivot symbol (optional)")
	probe := flag.String("probe", "", "probe symbol (cache lines to watch)")
	lines := flag.Int("lines", 4, "number of 64-byte lines to probe")
	replays := flag.Int("replays", 5, "replays before release")
	walk := flag.Int("walk", 4, "page-table levels served from memory (1-4)")
	disasm := flag.Bool("disasm", false, "print the assembled victim and exit")
	flag.Parse()
	if *script == "" {
		fmt.Fprintln(os.Stderr, "asmlab: -script is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(os.Stdout, *script, *handle, *pivot, *probe, *lines, *replays, *walk, *disasm); err != nil {
		fmt.Fprintln(os.Stderr, "asmlab:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, scriptPath, handleSym, pivotSym, probeSym string, lines, replays, walk int, disasm bool) error {
	src, err := os.ReadFile(scriptPath)
	if err != nil {
		return err
	}
	l, err := victim.ParseScript(scriptPath, string(src))
	if err != nil {
		return err
	}
	if disasm {
		fmt.Fprint(w, isa.Disassemble(l.Prog))
		return nil
	}

	handleVA, err := lookupSym(l, "handle", handleSym)
	if err != nil {
		return err
	}
	var pivotVA, probeVA mem.Addr
	if pivotSym != "" {
		if pivotVA, err = lookupSym(l, "pivot", pivotSym); err != nil {
			return err
		}
	}
	if probeSym != "" {
		if probeVA, err = lookupSym(l, "probe", probeSym); err != nil {
			return err
		}
	}

	rig, err := platform.New(cpu.DefaultConfig())
	if err != nil {
		return err
	}
	if err := rig.InstallVictim(l); err != nil {
		return err
	}

	var probeAddrs []mem.Addr
	if probeSym != "" {
		for i := 0; i < lines; i++ {
			probeAddrs = append(probeAddrs, probeVA+mem.Addr(i)*64)
		}
	}

	rec := &microscope.Recipe{
		Name:       "asmlab",
		Victim:     rig.Victim,
		Handle:     handleVA,
		Pivot:      pivotVA,
		WalkLevels: walk,
	}
	rec.OnReplay = func(ev microscope.Event) microscope.Decision {
		kind := "handle"
		if ev.OnPivot {
			kind = "pivot"
		}
		hot := describeProbe(rig, probeAddrs)
		fmt.Fprintf(w, "fault %2d (%-6s replay %2d, cycle %8d): hot lines %s\n",
			ev.TotalFaults, kind, ev.Replays, ev.Cycle, hot)
		if err := rig.Module.PrimeAddrs(rig.Victim, probeAddrs); err != nil {
			fmt.Fprintln(os.Stderr, "asmlab: prime:", err)
			return microscope.Release
		}
		if ev.OnPivot {
			return microscope.Pivot
		}
		if ev.Replays >= replays {
			if rec.Pivot != 0 {
				return microscope.Pivot
			}
			return microscope.Release
		}
		return microscope.Replay
	}
	if err := rig.Module.Install(rec); err != nil {
		return err
	}
	l.Start(rig.Kernel, 0)
	if err := rig.Run(100_000_000); err != nil {
		return err
	}

	fmt.Fprintf(w, "\nvictim finished: %t; total faults: %d\n",
		rig.Core.Context(0).Halted(), rec.TotalFaults())
	fmt.Fprintf(w, "registers: %s\n", describeRegs(rig))
	return nil
}

// lookupSym resolves the symbol a -flag names, erroring (instead of
// panicking in Layout.Sym) when the script does not define it.
func lookupSym(l *victim.Layout, flagName, sym string) (mem.Addr, error) {
	if va, ok := l.Symbols[sym]; ok {
		return va, nil
	}
	known := make([]string, 0, len(l.Symbols))
	for name := range l.Symbols {
		known = append(known, name)
	}
	sort.Strings(known)
	return 0, fmt.Errorf("-%s: unknown symbol %q (script defines: %s)", flagName, sym, strings.Join(known, ", "))
}

func describeProbe(rig *platform.Rig, addrs []mem.Addr) string {
	if len(addrs) == 0 {
		return "(no probe)"
	}
	prs, err := rig.Module.ProbeAddrs(rig.Victim, addrs)
	if err != nil {
		return "error: " + err.Error()
	}
	var hot []string
	for i, pr := range prs {
		if pr.Level != cache.LevelMem {
			hot = append(hot, fmt.Sprintf("%d(%s)", i, pr.Level))
		}
	}
	if len(hot) == 0 {
		return "none"
	}
	return strings.Join(hot, " ")
}

func describeRegs(rig *platform.Rig) string {
	ctx := rig.Core.Context(0)
	var parts []string
	for r := isa.R1; r <= isa.R8; r++ {
		if v := ctx.Reg(r); v != 0 {
			parts = append(parts, fmt.Sprintf("%s=%#x", r, v))
		}
	}
	if len(parts) == 0 {
		return "(all zero)"
	}
	return strings.Join(parts, " ")
}
