package bench

import (
	"os/exec"
	"strings"
)

// Commit names the checkout a benchmark artefact is measured at: the
// abbreviated HEAD hash, suffixed "-dirty" when the working tree has
// uncommitted changes, or "unknown" outside a git checkout. An artefact
// regenerated inside a change before it is committed therefore reads
// "<parent>-dirty": the parent commit plus that change's edits.
func Commit() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=12").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
