package world

import (
	"context"

	"vzlens/internal/atlas"
	"vzlens/internal/months"
)

// KernelChaosPartition is month m's baseline CHAOS partition as the
// kernel codes it, per site.
func (w *World) KernelChaosPartition(m months.Month) *atlas.ChaosPartition {
	return w.chaosPartition(context.Background(), m, nil, nil)
}

// KernelChaosRows is month m's baseline CHAOS rows as the kernel emits
// them, in the order KernelChaosPartition codes them.
func (w *World) KernelChaosRows(m months.Month) []atlas.ChaosResult {
	return w.chaosMonth(context.Background(), m, nil, nil)
}
