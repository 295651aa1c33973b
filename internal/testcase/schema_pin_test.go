package testcase

// Schema-drift pins: the committed .prismcase corpus (and any
// checkpoint a user has on disk) must keep decoding until the format
// version is bumped deliberately. These constants are the structural
// fingerprints of the serialized types at the current versions; if a
// field is added, removed, renamed or retyped without bumping the
// matching version constant, this test fails with instructions rather
// than letting CI discover the breakage via corpus decode errors.

import (
	"testing"

	"prism/internal/core"
	"prism/internal/snapshot"
)

const (
	pinnedCaseVersion     = 3
	pinnedCaseFingerprint = "6aed7c310f0cb852"
	pinnedSnapVersion     = 2
	pinnedSnapFingerprint = "004bce71f9a7180f"
)

func TestSchemaPins(t *testing.T) {
	if Version != pinnedCaseVersion {
		t.Errorf("testcase.Version = %d, pin = %d: re-pin the fingerprint below and regenerate testdata/cases", Version, pinnedCaseVersion)
	}
	if fp := snapshot.Fingerprint(&Case{}); fp != pinnedCaseFingerprint {
		t.Errorf("Case schema drifted (fingerprint %s, pinned %s): bump testcase.Version, update the pins and regenerate testdata/cases", fp, pinnedCaseFingerprint)
	}
	if core.CheckpointVersion != pinnedSnapVersion {
		t.Errorf("core.CheckpointVersion = %d, pin = %d: re-pin the fingerprint below and regenerate testdata/cases", core.CheckpointVersion, pinnedSnapVersion)
	}
	if fp := snapshot.Fingerprint(&core.MachineSnapshot{}); fp != pinnedSnapFingerprint {
		t.Errorf("MachineSnapshot schema drifted (fingerprint %s, pinned %s): bump core.CheckpointVersion, update the pins and regenerate testdata/cases", fp, pinnedSnapFingerprint)
	}
}
