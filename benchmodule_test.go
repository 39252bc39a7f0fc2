package pop_test

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchModule vets and short-tests bench/, the repo benchmark's own
// module (it replaces pop => ../, so `go test ./...` here never builds
// it). An API change in core/ds/store/server that breaks the measuring
// stick fails tier-1 here rather than on the next benchmark run.
func TestBenchModule(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	for _, args := range [][]string{
		{"vet", "./..."},
		{"test", "-short", "./..."},
	} {
		cmd := exec.Command(goBin, args...)
		cmd.Dir = "bench"
		// The nested module must resolve pop through its replace line
		// alone: no inherited flags, no workspace, no network.
		cmd.Env = append(os.Environ(), "GOFLAGS=", "GOWORK=off", "GOPROXY=off")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("cd bench && go %v: %v\n%s", args, err, out)
		}
	}
}
