package experiment

import (
	"testing"

	"github.com/microslicedcore/microsliced/internal/obs"
	"github.com/microslicedcore/microsliced/internal/simtime"
)

// TestBlameSkipsZeroTimeKinds: a span kind with spans but zero total time
// has no time to apportion among its stages, so it gets no blame row. A
// short uncontended gmake run is such a case for wake_dispatch: its wakes
// dispatch at once. Before the skip, that row's stage shares summed to 0%
// and the table failed Validate.
func TestBlameSkipsZeroTimeKinds(t *testing.T) {
	s := soloSetup("gmake", 200*simtime.Millisecond)
	s.Obs = &obs.Config{}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	zeroTime := ""
	for _, sp := range res.Telemetry.Spans {
		if sp.Count > 0 && sp.Total == 0 {
			zeroTime = sp.Kind
		}
	}
	if zeroTime == "" {
		t.Fatal("run recorded no span kind with spans but zero total time; the regression case is gone")
	}
	b := BlameFromSummary("gmake", res.Telemetry)
	if err := b.Validate(); err != nil {
		t.Fatalf("blame table invalid: %v", err)
	}
	for _, r := range b.Rows {
		if r.Kind == zeroTime {
			t.Errorf("zero-time kind %s has a blame row", zeroTime)
		}
	}
}
