// Package a exercises the checkederr analyzer with fixture-local
// stand-ins for the validation functions (the test sets
// -funcs=a.Validate,(a.Schedule).Check,a.Replay).
package a

import "errors"

type Schedule struct{}

// Check plays the role of a validation method.
func (s *Schedule) Check() error { return errors.New("invalid") }

// Validate plays the role of a package-level validation function.
func Validate() error { return nil }

// Replay plays the role of a validation function with a result besides
// its error.
func Replay() (int, error) { return 0, nil }

// Audit is NOT in the configured target set.
func Audit() error { return nil }

func discards() {
	Validate()     // want `result of a\.Validate is discarded`
	_ = Validate() // want `result of a\.Validate is discarded`
	var s Schedule
	s.Check()        // want `result of \(a\.Schedule\)\.Check is discarded`
	go Validate()    // want `result of a\.Validate is discarded`
	defer Validate() // want `result of a\.Validate is discarded`
	Audit()          // untracked functions may be dropped
	_, _ = Replay()  // want `result of a\.Replay is discarded`
	n, _ := Replay() // want `result of a\.Replay is discarded`
	_ = n
}

func consumes() error {
	if err := Validate(); err != nil {
		return err
	}
	var s Schedule
	err := s.Check()
	if err != nil {
		return err
	}
	if _, err := Replay(); err != nil {
		return err
	}
	return Validate()
}

func propagates() error {
	return (&Schedule{}).Check()
}

func handled(errs *[]error) {
	if err := Validate(); err != nil {
		*errs = append(*errs, err)
	}
}
