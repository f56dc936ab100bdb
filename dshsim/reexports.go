package dshsim

import (
	"dsh/internal/analysis"
	"dsh/internal/fault"
	"dsh/internal/metrics"
	"dsh/internal/packet"
	"dsh/internal/workload"
	"dsh/units"
)

// Class re-exports the 802.1p priority class type (0..7).
type Class = packet.Class

// NumClasses is the number of PFC priority classes per port.
const NumClasses = packet.NumClasses

// FaultScenario re-exports the declarative fault script (see internal/fault
// for the JSON format and determinism rules). Attach one to a run via
// NetworkConfig.Faults or RunConfig.Faults.
type FaultScenario = fault.Scenario

// FaultEvent re-exports one scripted fault.
type FaultEvent = fault.Event

// FaultKind re-exports the fault-class name type.
type FaultKind = fault.Kind

// The five fault classes.
const (
	FaultLinkFlap    = fault.LinkFlap
	FaultPauseStorm  = fault.PauseStorm
	FaultSlowNIC     = fault.SlowNIC
	FaultLatencySkew = fault.LatencySkew
	FaultRewireLoop  = fault.RewireLoop
)

// FaultStats re-exports the injected-fault counters reported in Result.
type FaultStats = fault.Stats

// ParseFaultScenario decodes a scenario spec from a JSON file.
func ParseFaultScenario(path string) (FaultScenario, error) { return fault.ParseFile(path) }

// RandomFaultScenario generates a reproducible scenario of n events over the
// network's wired links (flaps, storms, slow NICs, skews).
func RandomFaultScenario(net *Network, seed int64, horizon units.Time, n int) FaultScenario {
	return fault.Random(net, seed, horizon, n)
}

// FlowSpec re-exports the scheduled-flow descriptor.
type FlowSpec = workload.FlowSpec

// SizeDist re-exports the empirical flow-size distribution.
type SizeDist = workload.SizeDist

// Background re-exports the one-to-one Poisson traffic generator.
type Background = workload.Background

// Incast re-exports the many-to-one burst generator.
type Incast = workload.Incast

// WebSearch returns the DCTCP web-search flow-size distribution.
func WebSearch() *SizeDist { return workload.WebSearch() }

// DataMining returns the VL2 data-mining flow-size distribution.
func DataMining() *SizeDist { return workload.DataMining() }

// Cache returns the Facebook cache flow-size distribution.
func Cache() *SizeDist { return workload.Cache() }

// Hadoop returns the Facebook Hadoop flow-size distribution.
func Hadoop() *SizeDist { return workload.Hadoop() }

// WorkloadByName resolves a distribution by its lowercase name.
func WorkloadByName(name string) (*SizeDist, error) { return workload.ByName(name) }

// FCTCollector re-exports the completion-time collector.
type FCTCollector = metrics.FCTCollector

// CDF re-exports the sample summary used for report plotting.
type CDF = metrics.CDF

// NewCDF builds a CDF from a sample.
func NewCDF(values []float64) *CDF { return metrics.NewCDF(values) }

// BurstScenario re-exports the Theorem 1/2 closed-form calculator.
type BurstScenario = analysis.BurstScenario

// Chip re-exports the Broadcom chip-generation table entry (Fig. 4).
type Chip = analysis.Chip

// BroadcomChips returns the Fig. 4 chip list.
func BroadcomChips() []Chip { return analysis.BroadcomChips() }
