package nemesis

import (
	"encoding/json"
	"fmt"
	"os"

	"hypercube/internal/nemesis/oracle"
)

// Repro is the repro-file format: the (minimal) schedule plus the exact
// findings its execution produced. Because executions are
// bit-reproducible, a replay can demand finding-for-finding equality —
// a weaker "some failure occurred" check would let a different bug
// masquerade as the recorded one.
type Repro struct {
	Schedule Schedule         `json:"schedule"`
	Findings []oracle.Finding `json:"findings"`
}

// WriteRepro writes the repro as indented JSON.
func WriteRepro(path string, r Repro) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("nemesis: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("nemesis: %w", err)
	}
	return nil
}

// LoadRepro reads and validates a repro file.
func LoadRepro(path string) (Repro, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Repro{}, fmt.Errorf("nemesis: %w", err)
	}
	var r Repro
	if err := json.Unmarshal(data, &r); err != nil {
		return Repro{}, fmt.Errorf("nemesis: parse repro: %w", err)
	}
	if err := r.Schedule.Validate(); err != nil {
		return Repro{}, err
	}
	return r, nil
}

// Replay re-executes the repro's schedule and compares the findings
// against the recording. It returns the fresh findings and whether they
// match exactly (same checks, steps, and details, in order).
func Replay(r Repro, opt Options) ([]oracle.Finding, bool, error) {
	res, _, err := Execute(r.Schedule, opt)
	if err != nil {
		return nil, false, err
	}
	return res.Findings, sameFindings(res.Findings, r.Findings), nil
}

func sameFindings(a, b []oracle.Finding) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
