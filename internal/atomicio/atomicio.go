// Package atomicio provides crash-safe file writes for campaign outputs:
// result CSVs, event traces, profiles, and the experiment journal. Every
// write goes through a temporary file in the target directory, is fsynced,
// and is renamed into place, so a killed process (SIGKILL, OOM, power
// loss) leaves either the previous complete file or the new complete file
// — never a truncated half-write.
package atomicio

import (
	"bufio"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// WriteFile produces path atomically: write receives a buffered writer
// into a File; on success the buffer is flushed and the File closed,
// which publishes it. On any error the temp file is removed and path is
// left untouched.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	if err = write(bw); err == nil {
		if err = bw.Flush(); err != nil {
			err = fmt.Errorf("atomicio: flush %s: %w", path, err)
		}
	}
	if err != nil {
		f.Abort()
		return err
	}
	return f.Close()
}

// syncDir makes the rename itself durable by fsyncing the directory entry.
// Failures are deliberately ignored: some filesystems reject directory
// fsync, and by this point the data file is complete and named.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()  //lint:errcheck-ok — best-effort durability of the rename, see above
	d.Close() //lint:errcheck-ok — read-only directory handle
}

// File is a streaming atomic file: bytes are written to a temporary file
// in the target directory and the file is renamed into place only when
// Close succeeds. It backs outputs that are produced incrementally over a
// whole command — JSONL event traces and pprof CPU profiles — so an
// interrupted command never leaves a truncated output under the final
// name, and every WriteFile. Its writes, fsync and rename go through the
// fault-injection hooks in fault.go; with no injector armed they are the
// plain os calls.
type File struct {
	f    *os.File
	path string
	done bool
	werr error // first write failure; Close refuses to publish after one
}

// Create opens a streaming atomic file that will become path on Close.
// An error names path, not the temporary file.
func Create(path string) (*File, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		if pe, ok := err.(*fs.PathError); ok {
			err = pe.Err
		}
		return nil, fmt.Errorf("atomicio: create %s: %w", path, err)
	}
	return &File{f: tmp, path: path}, nil
}

// Write appends to the temporary file.
func (a *File) Write(p []byte) (int, error) {
	n, err := faultyWrite(a.f, p)
	if err != nil && a.werr == nil {
		a.werr = err
	}
	return n, err
}

// Close fsyncs the temporary file and renames it to the final path. It is
// idempotent; after the first successful Close further calls return nil.
// On failure it aborts: the temporary file is removed.
func (a *File) Close() error {
	if a.done {
		return nil
	}
	err := a.publish()
	if err != nil {
		a.Abort()
	}
	a.done = true
	return err
}

// publish is Close's sequence: fsync, close, rename, directory sync.
func (a *File) publish() error {
	if a.werr != nil {
		// A write already failed: the temp file is a known-truncated
		// stream. Publishing it under the final name would trade the
		// previous complete file for a partial one, so discard instead.
		return fmt.Errorf("atomicio: not publishing %s after failed write: %w", a.path, a.werr)
	}
	if err := faultySync(a.f); err != nil {
		return fmt.Errorf("atomicio: fsync %s: %w", a.path, err)
	}
	if err := a.f.Close(); err != nil {
		return fmt.Errorf("atomicio: close %s: %w", a.path, err)
	}
	if err := faultyRename(a.f.Name(), a.path); err != nil {
		return fmt.Errorf("atomicio: rename %s: %w", a.path, err)
	}
	syncDir(filepath.Dir(a.path))
	return nil
}

// Abort discards the temporary file without touching the final path. Safe
// to call after Close (it then does nothing).
func (a *File) Abort() {
	if a.done {
		return
	}
	a.done = true
	a.f.Close()           //lint:errcheck-ok — discarding the file, nothing to preserve
	os.Remove(a.f.Name()) //lint:errcheck-ok — best-effort cleanup
}
