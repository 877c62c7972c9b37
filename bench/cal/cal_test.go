package cal

import (
	"os/exec"
	"strings"
	"testing"
)

// TestKernelIsFrozen pins the iteration count and the checksum of the
// kernel's output. A failure here means the kernel was edited: every
// `_cu` metric in BENCHMARK.json has to be re-baselined (see
// bench/README.md) before the new values are written down.
func TestKernelIsFrozen(t *testing.T) {
	if Iterations != 500 {
		t.Errorf("Iterations = %d, want 500", Iterations)
	}
	if Checksum != 0x7243c65f1ae5f9bd {
		t.Errorf("Checksum = %#x, want 0x7243c65f1ae5f9bd", uint64(Checksum))
	}
	if got := Block(); got != Checksum {
		t.Errorf("Block() checksum = %#x, want %#x", got, uint64(Checksum))
	}
}

// TestKernelImportsNothingFromRepo keeps the kernel out of reach of
// program changes: its dependency closure holds no package under repro/
// except itself.
func TestKernelImportsNothingFromRepo(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", ".").Output()
	if err != nil {
		t.Skipf("go list unavailable: %v", err)
	}
	for _, pkg := range strings.Fields(string(out)) {
		if strings.HasPrefix(pkg, "repro/") && pkg != "repro/bench/cal" {
			t.Errorf("calibration kernel depends on %s", pkg)
		}
	}
}
