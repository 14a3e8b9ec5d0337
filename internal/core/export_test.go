package core

// Schedule builders of the internal tests, for the external core_test
// package's reference checks.
var (
	RandomValidSchedule = randomValidSchedule
	FloodSchedule       = floodSchedule
)
