package obs

import "strings"

// Counts is the lifecycle tally of one job (or, summed with Add, of a
// session): the resilience and tail counters Stats and Report publish.
// Every field is a fold of the event stream, changed only by Apply and
// Add, so replaying a job's logged events through a zero Counts
// reproduces what the runtime reported.
type Counts struct {
	// TasksRetried counts task executions re-queued after a crash or a
	// detected corruption.
	TasksRetried int
	// TasksRestored counts completed tasks re-executed because a device
	// loss invalidated their un-checkpointed outputs.
	TasksRestored int
	// Checkpoints counts committed asynchronous checkpoints.
	Checkpoints int
	// SDCDetected counts silent corruptions caught by the replica vote.
	SDCDetected int
	// SDCSilent counts corruptions that went undetected (the task was not
	// replicated).
	SDCSilent int
	// StragglersDetected counts executions the tail watchdog flagged as
	// exceeding the hedge policy's multiple of their expected span.
	StragglersDetected int
	// HedgesLaunched counts speculative replicas started.
	HedgesLaunched int
	// HedgesWon counts replicas that beat their straggling primary.
	HedgesWon int
	// HedgesDenied counts replica launches refused by device availability
	// or the core/watt ledgers (hedges pay their way under the power cap).
	HedgesDenied int
	// HedgeWastedJ is the energy burned by cancelled losing executions —
	// the price of the tail insurance.
	HedgeWastedJ float64
	// DeadlineMisses counts tasks that passed their deadline.
	DeadlineMisses int
	// TasksShed counts tasks skipped by graceful degradation: they never
	// executed and their records say so.
	TasksShed int
}

// Apply folds one event.
func (c *Counts) Apply(e Event) {
	switch e.Kind {
	case TaskRetried:
		if e.Detail == "restore" {
			c.TasksRestored++
		} else {
			c.TasksRetried++
		}
		if e.Detail == "sdc" {
			c.SDCDetected++
		}
	case TaskFailed:
		if e.Detail == "sdc" {
			c.SDCDetected++
		}
	case TaskCompleted:
		if strings.Contains(e.Detail, "corrupted") {
			c.SDCSilent++
		}
	case TaskShed:
		c.TasksShed++
	case CheckpointCommit:
		c.Checkpoints++
	case HedgeArmed:
		c.StragglersDetected++
	case HedgeLaunched:
		c.HedgesLaunched++
	case HedgeWon:
		c.HedgesWon++
		c.HedgeWastedJ += e.Value
	case HedgeCancelled:
		c.HedgeWastedJ += e.Value
	case HedgeDenied:
		c.HedgesDenied++
	case DeadlineMissed:
		c.DeadlineMisses++
	}
}

// Add sums another tally into c.
func (c *Counts) Add(o Counts) {
	c.TasksRetried += o.TasksRetried
	c.TasksRestored += o.TasksRestored
	c.Checkpoints += o.Checkpoints
	c.SDCDetected += o.SDCDetected
	c.SDCSilent += o.SDCSilent
	c.StragglersDetected += o.StragglersDetected
	c.HedgesLaunched += o.HedgesLaunched
	c.HedgesWon += o.HedgesWon
	c.HedgesDenied += o.HedgesDenied
	c.HedgeWastedJ += o.HedgeWastedJ
	c.DeadlineMisses += o.DeadlineMisses
	c.TasksShed += o.TasksShed
}
