package scenario

// The four canonical scenarios. Their text is the files under
// examples/scenarios/, embedded there at build time, so the files users run
// are exactly the ones the golden figure and the differential determinism
// harness exercise.

import "repro/examples/scenarios"

// CanonNames lists the canonical scenarios in presentation order.
var CanonNames = []string{
	"steady-multi-tenant",
	"noisy-neighbor",
	"flash-crowd",
	"failover-under-load",
}

// Canon returns the embedded scenario text by name ("" when unknown).
func Canon(name string) string {
	switch name {
	case "steady-multi-tenant":
		return scenarios.SteadyMultiTenant
	case "noisy-neighbor":
		return scenarios.NoisyNeighbor
	case "flash-crowd":
		return scenarios.FlashCrowd
	case "failover-under-load":
		return scenarios.FailoverUnderLoad
	}
	return ""
}
