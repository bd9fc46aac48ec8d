package serving

import (
	"cmp"
	"slices"

	"adainf/internal/simtime"
)

// retrainItem is one scheduled whole-pool retraining awaiting
// application, keyed by the session at which it applies. The key is the
// session index, not the completion instant: two retrains completing
// within the same 5 ms session window apply at the same session and
// must do so in period-plan order, which planIdx preserves.
type retrainItem struct {
	pr           *pendingRetrain
	applySession int
	planIdx      int
}

// sortApplyOrder sorts items by (applySession, planIdx), the order in
// which the period's retrains apply.
func sortApplyOrder(items []retrainItem) {
	slices.SortFunc(items, func(a, b retrainItem) int {
		if c := cmp.Compare(a.applySession, b.applySession); c != 0 {
			return c
		}
		return cmp.Compare(a.planIdx, b.planIdx)
	})
}

// applySessionOf returns the first session whose start instant is not
// before the completion.
func applySessionOf(completion simtime.Instant, session simtime.Duration) int {
	d := completion.Duration()
	if d <= 0 {
		return 0
	}
	return int((d + session - 1) / session)
}
