package main

import (
	"bytes"
	"strings"
	"testing"
)

const victimScript = "../../examples/asmlab/victim.s"

// TestRunSymbols drives the lab on the example victim: the default
// flags expose the secret probe line (3) on every replay, and an unknown -handle, -probe or -pivot
// symbol is an error naming the symbol instead of a panic.
func TestRunSymbols(t *testing.T) {
	cases := []struct {
		name                 string
		handle, pivot, probe string
		wantErr              string
		wantOut              string
	}{
		{name: "happy", handle: "handle", probe: "probe", wantOut: "hot lines 3(L1)"},
		{name: "pivot", handle: "handle", pivot: "hotline", probe: "probe", wantOut: "pivot"},
		{name: "unknown-handle", handle: "nohandle", wantErr: `-handle: unknown symbol "nohandle"`},
		{name: "unknown-probe", handle: "handle", probe: "noprobe", wantErr: `-probe: unknown symbol "noprobe"`},
		{name: "unknown-pivot", handle: "handle", pivot: "nopivot", wantErr: `-pivot: unknown symbol "nopivot"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(&out, victimScript, tc.handle, tc.pivot, tc.probe, 4, 3, 4, false)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want it to contain %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out.String(), tc.wantOut) {
				t.Errorf("output lacks %q:\n%s", tc.wantOut, out.String())
			}
		})
	}
}
