package costopt

import "repro/internal/planner"

// ChooseUncached runs order selection without the memo.
func ChooseUncached(p *planner.Plan, opts Options) (*Choice, error) {
	return choose(newInput(p, opts))
}
