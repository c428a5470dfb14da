package world

import "fmt"

// Scope fingerprints the configuration axes that determine campaign
// output, after defaulting. Two configs with equal scopes simulate
// bit-identical campaigns; Workers is deliberately excluded (output is
// schedule-independent). The HTTP layer keys its result store on this
// string, and the fact lake's manifest records it so a lake directory
// reused across differently-configured servers is rebuilt, never
// trusted.
func (c Config) Scope() string {
	d := c.withDefaults()
	return fmt.Sprintf("seed%d-step%d-tr%s-%s-ch%s-%s-spp%d-pol%d-fs%g",
		d.Seed, d.Step, d.TraceStart, d.TraceEnd,
		d.ChaosStart, d.ChaosEnd, d.SamplesPerProbe, d.Policy, d.FleetScale)
}
