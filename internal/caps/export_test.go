package caps

// Fixtures shared with the external caps_test package, whose tests
// compose this package's decorators with the quantized backends of
// internal/axe (which imports caps, so package caps cannot import it).
var (
	NLNet         = nlNet
	RandT         = rt
	HalvedSoftmax = halvedSoftmax
)
