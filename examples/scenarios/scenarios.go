// Package scenarios embeds the four canonical multi-tenant scenario files
// in this directory. They are the single source of truth: the files users
// run with `afsim -scenario` are, byte for byte, the text that
// scenario.Canon hands to the golden figure and the differential
// determinism harness. Each file's header comment describes its scenario.
package scenarios

import _ "embed"

// SteadyMultiTenant is steady-multi-tenant.json.
//
//go:embed steady-multi-tenant.json
var SteadyMultiTenant string

// NoisyNeighbor is noisy-neighbor.json.
//
//go:embed noisy-neighbor.json
var NoisyNeighbor string

// FlashCrowd is flash-crowd.json.
//
//go:embed flash-crowd.json
var FlashCrowd string

// FailoverUnderLoad is failover-under-load.json.
//
//go:embed failover-under-load.json
var FailoverUnderLoad string
