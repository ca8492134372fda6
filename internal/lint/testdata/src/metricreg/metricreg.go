// Package metricregfixture exercises the metricreg analyzer both ways:
// emitting a name absent from the obs catalog fires, emitting a counter
// through a histogram API fires, composing a name at runtime fires
// locally, emitting a series through the wrong registry for its catalog
// scope fires, and reading an unregistered or non-constant name back
// fires; catalog-registered names used through the right API and the
// right registry stay quiet.
package metricregfixture

import "repro/internal/obs"

// registered emits process-scoped catalog names through the package-level
// functions, with their registered kinds: quiet.
func registered() {
	obs.Add("pipe.stages", 1)
	obs.ObserveMS("shard.ring.occupancy", 0.25)
}

// unregistered emits a name the obs catalog does not know.
func unregistered() {
	obs.Add("bogus.metric", 1) // want metricreg
}

// kindMismatch emits a registered counter through the histogram API.
func kindMismatch() {
	obs.ObserveMS("pipe.stages", 2.0) // want metricreg
}

// dynamicName composes the metric name at runtime, so the registry check
// cannot see it.
func dynamicName(site string) {
	obs.Add("fault."+site+".errs", 1) // want metricreg
}

// instanceOwned emits instance-scoped names through an instance registry:
// quiet.
func instanceOwned(reg *obs.Registry) {
	reg.Add("serve.ingest.batches", 1)
	reg.ObserveMS("serve.classify.latency.ms", 1.5)
}

// instanceThroughDefault emits an instance-scoped name process-wide, where
// every server in the process would share it.
func instanceThroughDefault() {
	obs.Add("serve.ingest.batches", 1) // want metricreg
}

// processThroughInstance emits a process-scoped name into an instance
// registry, hiding it from every other instance's /metrics.
func processThroughInstance(reg *obs.Registry) {
	reg.Add("pipe.stages", 1) // want metricreg
}

// readRegistered reads a registered counter back: quiet.
func readRegistered(reg *obs.Registry) int64 {
	return reg.Counter("serve.ingest.batches")
}

// readUnregistered reads names the catalog cannot vouch for.
func readUnregistered(reg *obs.Registry, name string) int64 {
	return reg.Counter("bogus.metric") + // want metricreg
		reg.Counter(name) // want metricreg
}
