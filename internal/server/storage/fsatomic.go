package storage

import (
	"bufio"
	"io"
	"os"
	"path/filepath"
)

// WriteFileAtomic replaces dir/name with the bytes write produces, so
// the file is either the old one or complete — never torn — wherever a
// crash lands. write fills dir/name.tmp through a 64 KiB buffer; the
// tmp file is then flushed, fsynced, closed, renamed over name, and
// the directory is fsynced. On any failure after the tmp file is
// created it is removed and the old file is left as it was; a tmp path
// that cannot be created (it is a directory, say) is left alone. The
// wal's MANIFEST and stripe snapshots and the cluster's CLUSTER pin
// are committed through it. The fsynclock analyzer flags a call to it
// made while a wal stripe's append mutex is held.
func WriteFileAtomic(dir, name string, write func(io.Writer) error) error {
	tmpPath := filepath.Join(dir, name+".tmp")
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(tmp, 1<<16)
	err = write(w)
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = tmp.Sync()
	}
	if closeErr := tmp.Close(); err == nil {
		err = closeErr
	}
	if err == nil {
		err = os.Rename(tmpPath, filepath.Join(dir, name))
	}
	if err != nil {
		_ = os.Remove(tmpPath)
		return err
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory so renames and removals inside it are
// durable. The fsynclock analyzer flags a call to it made while a wal
// stripe's append mutex is held.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
