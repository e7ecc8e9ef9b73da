package skute

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchmarkModuleVets vets the nested benchmark module. benchmark/ has
// its own go.mod, so `go test ./...` at the root never compiles it, and a
// product change that breaks an API the benchmark calls would otherwise
// only show when the benchmark is next run. The module needs nothing
// outside this repository, so the check runs offline.
func TestBenchmarkModuleVets(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go command not on PATH: %v", err)
	}
	cmd := exec.Command(goBin, "vet", "./...")
	cmd.Dir = "benchmark"
	cmd.Env = append(os.Environ(), "GOPROXY=off", "GOTOOLCHAIN=local", "GOWORK=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in benchmark/: %v\n%s", err, out)
	}
}
