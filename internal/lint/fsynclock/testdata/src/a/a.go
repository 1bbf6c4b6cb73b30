// Package a is fsynclock golden testdata: flush under the stripe
// mutex, fsync outside it.
package a

import (
	"bufio"
	"io"
	"os"
	"sync"

	"github.com/pglp/panda/internal/server/storage"
)

type stripe struct {
	mu      sync.Mutex
	fsyncMu sync.Mutex
	dir     string
	f       *os.File
	w       *bufio.Writer
}

// AppendFlush is the group-commit contract in miniature: buffered
// flush under mu, device flush under fsyncMu only.
func (st *stripe) AppendFlush(p []byte) error {
	st.mu.Lock()
	st.w.Write(p)
	if err := st.w.Flush(); err != nil {
		st.mu.Unlock()
		return err
	}
	st.mu.Unlock()
	st.fsyncMu.Lock()
	defer st.fsyncMu.Unlock()
	return st.f.Sync()
}

// AppendSyncBad fsyncs with the append mutex held: every concurrent
// writer of the stripe now waits on device latency.
func (st *stripe) AppendSyncBad(p []byte) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.w.Write(p)
	st.w.Flush()
	return st.f.Sync() // want "Sync called while append mutex st\\.mu is held"
}

// publishBad fsyncs the stripe directory through another package's
// sync helper with the append mutex held: storage.SyncDir is a device
// flush all the same.
func (st *stripe) publishBad() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return storage.SyncDir(st.dir) // want "SyncDir called while append mutex st\\.mu is held"
}

// publishAfterUnlock is the fix: the directory fsync runs once the
// append mutex is released.
func (st *stripe) publishAfterUnlock() error {
	st.mu.Lock()
	st.w.Flush()
	st.mu.Unlock()
	return storage.SyncDir(st.dir)
}

// snapshotBad commits a file with the append mutex held:
// storage.WriteFileAtomic fsyncs the file and its directory although
// its name does not start with "sync".
func (st *stripe) snapshotBad(body []byte) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return storage.WriteFileAtomic(st.dir, "snapshot.dat", func(w io.Writer) error { // want "WriteFileAtomic called while append mutex st\\.mu is held"
		_, err := w.Write(body)
		return err
	})
}

// rotateLocked runs under the caller's st.mu by naming convention: the
// analyzer assumes the receiver's mu is held.
func (st *stripe) rotateLocked() {
	st.f.Sync() // want "Sync called while append mutex st\\.mu is held"
}

// Rotate uses the WAL's closure-unlock idiom: the sync after unlock()
// is outside the mutex and must stay unflagged.
func (st *stripe) Rotate() error {
	st.fsyncMu.Lock()
	st.mu.Lock()
	unlock := func() {
		st.mu.Unlock()
		st.fsyncMu.Unlock()
	}
	st.w.Flush()
	unlock()
	return st.f.Sync()
}

// Seal fsyncs a finished segment under mu deliberately — no writer can
// race a sealed segment — and carries the directive saying so.
func (st *stripe) Seal() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	//panda:allow fsynclock — sealing a finished segment; no writer can race it
	return st.f.Sync()
}
