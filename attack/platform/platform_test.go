package platform

import (
	"regexp"
	"testing"

	"microscope/attack/victim"
	"microscope/sim/cpu"
	"microscope/sim/isa"
)

func spinLayout() *victim.Layout {
	return &victim.Layout{Name: "spin", Prog: isa.NewBuilder().Label("spin").Nop().Jmp("spin").MustBuild()}
}

func haltLayout() *victim.Layout {
	return &victim.Layout{Name: "halt", Prog: isa.NewBuilder().Nop().Halt().MustBuild()}
}

// TestRunTimeoutNamesEveryContext drives a victim and a monitor where
// one halts and the other spins: the timeout error must name each
// loaded context by its process, with its state and pc, so a hang on
// the monitor's context is not blamed on the victim.
func TestRunTimeoutNamesEveryContext(t *testing.T) {
	cases := []struct {
		name         string
		victim, mon  *victim.Layout
		wantErr      bool
		victimState  string
		monitorState string
	}{
		{name: "victim-spins", victim: spinLayout(), mon: haltLayout(), wantErr: true, victimState: "spinning", monitorState: "halted"},
		{name: "monitor-spins", victim: haltLayout(), mon: spinLayout(), wantErr: true, victimState: "halted", monitorState: "spinning"},
		{name: "both-halt", victim: haltLayout(), mon: haltLayout()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := New(cpu.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if err := r.InstallVictim(tc.victim); err != nil {
				t.Fatal(err)
			}
			if err := r.AddMonitor(tc.mon); err != nil {
				t.Fatal(err)
			}
			tc.victim.Start(r.Kernel, 0)
			tc.mon.Start(r.Kernel, 1)
			err = r.Run(5_000)
			if !tc.wantErr {
				if err != nil {
					t.Fatalf("Run = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatal("Run returned nil with a context still spinning")
			}
			msg := err.Error()
			want := []string{
				`^platform: run exceeded 5000 cycles;`,
				`; victim ` + tc.victimState + ` at pc=\d+(;|$)`,
				`; monitor ` + tc.monitorState + ` at pc=\d+(;|$)`,
			}
			for _, re := range want {
				if !regexp.MustCompile(re).MatchString(msg) {
					t.Errorf("timeout error %q does not match %q", msg, re)
				}
			}
		})
	}
}

// TestRunTimeoutNamesScheduledProcess: a context scheduled through the
// kernel directly (not AddMonitor) is still reported by its process
// name.
func TestRunTimeoutNamesScheduledProcess(t *testing.T) {
	r, err := New(cpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	vic, side := haltLayout(), spinLayout()
	if err := r.InstallVictim(vic); err != nil {
		t.Fatal(err)
	}
	p, err := r.Kernel.NewProcess("sidecar")
	if err != nil {
		t.Fatal(err)
	}
	r.Kernel.Schedule(1, p)
	if err := side.Install(r.Kernel, p); err != nil {
		t.Fatal(err)
	}
	vic.Start(r.Kernel, 0)
	side.Start(r.Kernel, 1)
	err = r.Run(5_000)
	if err == nil || !regexp.MustCompile(`; sidecar spinning at pc=\d+`).MatchString(err.Error()) {
		t.Fatalf("timeout error %v does not name the sidecar process", err)
	}
}
