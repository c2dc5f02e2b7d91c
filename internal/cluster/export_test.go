package cluster

// NodeAnswers lets the external test package drain a node's stream through
// the same helper as the internal tests.
var NodeAnswers = nodeAnswers
