package store

// CardStats is what SampleStats returns: the epoch of the snapshot, nothing
// more. Both remain for the frozen benchmark module alone (see
// plan.PlanSchema); the benchmark PR, ROADMAP item 1, deletes them.
type CardStats struct {
	Epoch uint64
}

// SampleStats returns snap's epoch.
func SampleStats(snap Snapshot) CardStats { return CardStats{Epoch: snap.Epoch()} }
