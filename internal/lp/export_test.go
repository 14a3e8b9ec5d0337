package lp

// CheckLevers lets the external tests run checkLevers on programs built
// by packages that import this one.
var CheckLevers = checkLevers
