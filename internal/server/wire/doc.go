// Package wire defines the typed protocol of the PANDA /v2 service API:
// request/response envelopes, the uniform error envelope, machine-
// readable error codes, the pagination cursor, and the codecs of the
// hot bodies (the binary and JSON batch reports, the analytics count
// answers). It is the single source of truth for what goes over the
// network — both the server handlers and the client marshal exactly
// these structs. Its only imports from the rest of the system are the
// report decoders' targets, storage (the record and its frame codec)
// and geo (the point), so tooling can import it without the server.
package wire
