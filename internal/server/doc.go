// Package server implements PANDA's untrusted (semi-honest) server side
// (Fig. 1/3): a pluggable store of released locations (the storage
// package), a cached aggregate-query engine behind the location-
// monitoring app and the privacy-preserving "health code" service (the
// analytics package), and the typed /v2 HTTP API with a matching client
// that plays the role of the mobile app.
package server
