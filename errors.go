package countrymon

import (
	"errors"
	"fmt"
	"time"
)

// ErrCampaignComplete is returned by ScanRound once every round
// of the timeline has been handled. Check with errors.Is.
var ErrCampaignComplete = errors.New("countrymon: campaign complete")

// ErrNoCheckpoint is returned by Checkpoint when no CheckpointPath is
// configured. Check with errors.Is.
var ErrNoCheckpoint = errors.New("countrymon: no CheckpointPath configured")

// TimelineSpec is the shape of a campaign timeline, as carried by
// ResumeMismatchError.
type TimelineSpec struct {
	Start    time.Time
	Interval time.Duration
	Rounds   int
}

// Equal reports whether two specs describe the same timeline.
func (t TimelineSpec) Equal(o TimelineSpec) bool {
	return t.Start.Equal(o.Start) && t.Interval == o.Interval && t.Rounds == o.Rounds
}

func (t TimelineSpec) String() string {
	return fmt.Sprintf("%s+%s×%d", t.Start.Format(time.RFC3339), t.Interval, t.Rounds)
}

// ResumeMismatchError is returned by New when Options.ResumeFrom names a
// checkpoint of a different campaign. It carries both sides of the conflict
// so callers can report (or reconcile) it instead of string-matching; check
// with errors.As.
type ResumeMismatchError struct {
	Path string

	// Want* describe the configured campaign, Got* the checkpoint.
	WantTimeline, GotTimeline TimelineSpec
	WantBlocks, GotBlocks     int

	// FirstDiff is the index of the first differing target block (-1 when
	// the mismatch is the timeline or the block count), with the two blocks
	// in WantBlock/GotBlock.
	FirstDiff           int
	WantBlock, GotBlock BlockID
}

func (e *ResumeMismatchError) Error() string {
	switch {
	case !e.GotTimeline.Equal(e.WantTimeline):
		return fmt.Sprintf("countrymon: resume %s: checkpoint timeline %s does not match campaign %s",
			e.Path, e.GotTimeline, e.WantTimeline)
	case e.GotBlocks != e.WantBlocks:
		return fmt.Sprintf("countrymon: resume %s: checkpoint has %d blocks, campaign has %d",
			e.Path, e.GotBlocks, e.WantBlocks)
	default:
		return fmt.Sprintf("countrymon: resume %s: checkpoint block %v differs from campaign block %v (index %d)",
			e.Path, e.GotBlock, e.WantBlock, e.FirstDiff)
	}
}
