package borealis_test

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchModuleVets type-checks bench/ — a module of its own that imports
// internal/... through a replace directive, so `go build ./...` here never
// compiles it — under the environment bench/run.sh builds with. vet checks
// the module's tests too. An internal rename or signature change that breaks
// the frozen benchmark fails `go test ./...` at once instead of surfacing
// when the benchmark pipeline next runs.
func TestBenchModuleVets(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	cmd := exec.Command(goTool, "vet", "./...")
	cmd.Dir = "bench"
	cmd.Env = append(os.Environ(), "GOFLAGS=", "GOWORK=off", "GOTOOLCHAIN=local", "CGO_ENABLED=0")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in bench/: %v\n%s", err, out)
	}
}
