package diag

// Stable diagnostic codes. E-codes are fatal, W-codes are graceful
// degradations (a correct fallback was taken), I-codes are informational.
// Codes are part of the tool-facing contract (tests and downstream scripts
// may match on them); change messages freely, codes never.
const (
	// CodeLex: lexical error (unexpected character, malformed literal).
	CodeLex = "E001"
	// CodeParse: syntax error.
	CodeParse = "E002"
	// CodeIRBuild: semantic error during IR lowering (undeclared variable,
	// rank mismatch, an array, PROCESSORS or DISTRIBUTE of rank above
	// ast.MaxRank = 7, bad GOTO target).
	CodeIRBuild = "E003"
	// CodeVerify: an inter-pass verifier invariant failed — a compiler bug,
	// not a user error.
	CodeVerify = "E004"
	// CodeConfig: a run configuration is invalid for the requested backend
	// or mode (e.g. fault injection handed to the differential oracle).
	CodeConfig = "E005"
	// CodeBudget: a run exceeded an explicit resource budget (MaxCells on
	// the interpreter's memory image). The breach is the requester's fault,
	// not the process's — servers map it to a client error, never an OOM.
	CodeBudget = "E006"
	// CodePanic: an execution panicked and was contained (the serving
	// layer's per-request isolation; the process keeps running).
	CodePanic = "E007"

	// CodeDirective: a mapping directive was skipped; the affected arrays
	// stay replicated.
	CodeDirective = "W101"
	// CodeScalarFallback: a scalar alignment candidate was rejected and the
	// definition fell back to replication.
	CodeScalarFallback = "W102"
	// CodeSerialized: the privatization inference pass declined to
	// privatize a variable written inside a loop; the value stays shared
	// (replicated), serializing its cross-iteration or cross-loop flow.
	// The message names the blocking reference with its position.
	CodeSerialized = "W103"

	// CodeInnerComm: a communication requirement could not be vectorized
	// and executes per statement instance.
	CodeInnerComm = "I201"
	// CodeNoVectorize: message vectorization disabled by options; every
	// communication stays at its statement.
	CodeNoVectorize = "I202"
	// CodeInferredPrivate: the privatization inference pass proved a
	// variable privatizable with respect to a loop without a NEW clause
	// and inserted the equivalent annotation.
	CodeInferredPrivate = "I203"
	// CodeLastPrivate: the inference pass classified a scalar as
	// lastprivate — privatizable within the loop with its final-iteration
	// value copied out at loop exit for the uses that follow.
	CodeLastPrivate = "I204"
)
