// Command pipeview renders the instruction-level anatomy of a replay
// attack: for each replay window, which victim instructions were fetched,
// issued and executed speculatively — and then squashed — before the
// replay handle's fault was delivered. It is the paper's Figure 3 at
// per-instruction resolution.
package main

import (
	"flag"
	"fmt"
	"os"

	"microscope/analysis/pipetrace"
	"microscope/attack/microscope"
	"microscope/attack/platform"
	"microscope/attack/victim"
	"microscope/sim/cpu"
	"microscope/sim/trace"
)

func main() {
	replays := flag.Int("replays", 3, "replay windows to show")
	secret := flag.Bool("secret", true, "victim branch secret (div vs mul side)")
	traceOut := flag.String("trace", "",
		"also write a Chrome Trace Event JSON of the run to this file (Perfetto-loadable)")
	metrics := flag.Bool("metrics", false,
		"print deterministic aggregate pipeline metrics after the windows")
	flag.Parse()

	if err := run(*replays, *secret, *traceOut, *metrics); err != nil {
		fmt.Fprintln(os.Stderr, "pipeview:", err)
		os.Exit(1)
	}
}

func run(replays int, secret bool, traceOut string, metrics bool) error {
	rig, err := platform.New(cpu.DefaultConfig())
	if err != nil {
		return err
	}
	vic := victim.ControlFlowSecret(secret)
	if err := rig.InstallVictim(vic); err != nil {
		return err
	}
	col := pipetrace.NewCollector(4096)
	var chromeCol *trace.Collector
	var met *trace.Metrics
	sinks := []cpu.Tracer{col}
	if traceOut != "" {
		chromeCol = trace.NewCollector(0)
		sinks = append(sinks, chromeCol)
	}
	if metrics {
		met = trace.NewMetrics()
		met.ROBSize = cpu.DefaultConfig().ROBSize
		sinks = append(sinks, met)
	}
	rig.Core.SetTracer(trace.Tee(sinks...))

	rec := &microscope.Recipe{
		Name:       "pipeview",
		Victim:     rig.Victim,
		Handle:     vic.Sym("handle"),
		MaxReplays: replays,
	}
	if err := rig.Module.Install(rec); err != nil {
		return err
	}
	vic.Start(rig.Kernel, 0)
	if err := rig.Run(50_000_000); err != nil {
		return err
	}
	col.Finalize()

	windows := col.Windows(0)
	fmt.Printf("victim: control-flow secret (%s side); %d replay windows\n\n",
		map[bool]string{true: "div", false: "mul"}[secret], len(windows))
	for i, w := range windows {
		retired, squashed, faulted := pipetrace.Summary(w)
		fmt.Printf("--- window %d: %d retired, %d squashed, %d faulted ---\n",
			i, retired, squashed, faulted)
		fmt.Print(pipetrace.Render(w))
		fmt.Println()
	}
	if chromeCol != nil {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := trace.WriteChrome(f, chromeCol, rig.Module.TraceAnnotations()); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote Chrome trace to %s (open in Perfetto or chrome://tracing)\n", traceOut)
	}
	if met != nil {
		fmt.Println("-- pipeline metrics --")
		fmt.Print(met.Text())
	}
	return nil
}
