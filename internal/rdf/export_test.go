package rdf

// RandomEncoderTerm hands the encoder tests' generator to package rdf_test,
// which may import the parser.
var RandomEncoderTerm = randomEncoderTerm
