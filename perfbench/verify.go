package main

import (
	"fmt"
	"math"
	"reflect"

	"gecco/internal/bitset"
	"gecco/internal/constraints"
	"gecco/internal/distance"
	"gecco/internal/eventlog"
	"gecco/internal/instances"
)

// verifyGrouping re-checks a feasible grouping from scratch, sharing no
// state with the solve that produced it: the groups must partition the
// log's classes, every group and the grouping as a whole must satisfy the
// set under a fresh evaluator, and a fresh distance calculator must
// reproduce the reported distance.
func verifyGrouping(x *eventlog.Index, set *constraints.Set, policy instances.Policy, groups [][]string, dist float64) error {
	seen := make([]bool, x.NumClasses())
	sets := make([]bitset.Set, len(groups))
	for i, names := range groups {
		g, unknown := x.GroupFromNames(names)
		if len(unknown) > 0 {
			return fmt.Errorf("group %d names unknown classes %v", i, unknown)
		}
		dup := -1
		g.ForEach(func(c int) bool {
			if seen[c] {
				dup = c
				return false
			}
			seen[c] = true
			return true
		})
		if dup >= 0 {
			return fmt.Errorf("class %s is in more than one group", x.Classes[dup])
		}
		sets[i] = g
	}
	for c, ok := range seen {
		if !ok {
			return fmt.Errorf("class %s is in no group", x.Classes[c])
		}
	}
	ev := constraints.NewEvaluator(x, set, policy)
	for i, g := range sets {
		if !ev.HoldsClass(g) || !ev.HoldsInstance(g) {
			return fmt.Errorf("group %d %v violates the constraints", i, groups[i])
		}
	}
	if !ev.HoldsGrouping(len(sets)) {
		return fmt.Errorf("%d groups violate the grouping constraints", len(sets))
	}
	if len(set.GlobalConstraints()) > 0 && !ev.HoldsGlobal(sets) {
		return fmt.Errorf("grouping violates a global constraint")
	}
	want := distance.NewCalc(x, policy).Grouping(sets)
	if math.Abs(want-dist) > 1e-9*math.Max(1, math.Abs(want)) {
		return fmt.Errorf("distance %v, a fresh calculator gives %v", dist, want)
	}
	return nil
}

// outcome is the part of an abstraction result the checks compare.
type outcome struct {
	Feasible bool
	Distance float64
	Groups   [][]string
}

func (o outcome) diff(want outcome) error {
	if o.Feasible != want.Feasible {
		return fmt.Errorf("feasible %v, reference %v", o.Feasible, want.Feasible)
	}
	if !o.Feasible {
		return nil
	}
	if o.Distance != want.Distance {
		return fmt.Errorf("distance %v, reference %v", o.Distance, want.Distance)
	}
	if !reflect.DeepEqual(o.Groups, want.Groups) {
		return fmt.Errorf("groups %v, reference %v", o.Groups, want.Groups)
	}
	return nil
}
