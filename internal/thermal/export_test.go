package thermal

// The random-system generators, for the external thermal_test package:
// its segment tests also run on the platform catalog, which imports this
// package.
var (
	RandomNetwork = randomNetwork
	RandomPowers  = randomPowers
)
