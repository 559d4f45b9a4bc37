package main

import (
	"strings"
	"sync/atomic"
	"time"

	"kfusion/internal/faultfs"
)

// fsStats is what the generation store did through one state filesystem.
// The store names its journal "journal.kfj" (rewritten through
// "journal.kfj.tmp"); every other file it writes is a snapshot.
type fsStats struct {
	journalWrite  atomic.Int64 // ns
	journalSync   atomic.Int64 // ns
	journalBytes  atomic.Int64
	snapshotTime  atomic.Int64 // ns in snapshot Write and Sync
	snapshots     atomic.Int64 // snapshot files created
	snapshotBytes atomic.Int64
	syncs         atomic.Int64 // file and directory syncs
	readTime      atomic.Int64 // ns
	readBytes     atomic.Int64
}

// countingFS wraps the server's state filesystem (server.Config.FS) and
// times every call into it. Each call is a span whose parent is parent():
// the server span the call happens inside.
type countingFS struct {
	inner  faultfs.FS
	st     *fsStats
	tr     *tracer
	parent func() int64
}

func isJournal(name string) bool { return strings.HasPrefix(name, "journal") }

func (c *countingFS) op(name string, ns *atomic.Int64, f func()) {
	sp := c.tr.start(c.parent(), name)
	t0 := time.Now()
	f()
	if ns != nil {
		ns.Add(int64(time.Since(t0)))
	}
	sp.end()
}

func (c *countingFS) ReadFile(name string) (data []byte, err error) {
	c.op("genstore.read", &c.st.readTime, func() { data, err = c.inner.ReadFile(name) })
	c.st.readBytes.Add(int64(len(data)))
	return data, err
}

func (c *countingFS) Create(name string) (faultfs.File, error) {
	var f faultfs.File
	var err error
	c.op("genstore.create", nil, func() { f, err = c.inner.Create(name) })
	if err != nil {
		return nil, err
	}
	if !isJournal(name) {
		c.st.snapshots.Add(1)
	}
	return &countingFile{fs: c, f: f, journal: isJournal(name)}, nil
}

func (c *countingFS) OpenAppend(name string) (faultfs.File, error) {
	var f faultfs.File
	var err error
	c.op("genstore.open", nil, func() { f, err = c.inner.OpenAppend(name) })
	if err != nil {
		return nil, err
	}
	return &countingFile{fs: c, f: f, journal: isJournal(name)}, nil
}

func (c *countingFS) Rename(oldname, newname string) (err error) {
	c.op("genstore.rename", nil, func() { err = c.inner.Rename(oldname, newname) })
	return err
}

func (c *countingFS) Remove(name string) (err error) {
	c.op("genstore.remove", nil, func() { err = c.inner.Remove(name) })
	return err
}

func (c *countingFS) List() (names []string, err error) {
	c.op("genstore.list", nil, func() { names, err = c.inner.List() })
	return names, err
}

func (c *countingFS) SyncDir() (err error) {
	c.op("genstore.sync_dir", nil, func() { err = c.inner.SyncDir() })
	c.st.syncs.Add(1)
	return err
}

// countingFile attributes a file's writes and syncs to the journal or the
// snapshot it belongs to.
type countingFile struct {
	fs      *countingFS
	f       faultfs.File
	journal bool
}

func (w *countingFile) Write(p []byte) (n int, err error) {
	st := w.fs.st
	if w.journal {
		w.fs.op("genstore.journal_write", &st.journalWrite, func() { n, err = w.f.Write(p) })
		st.journalBytes.Add(int64(n))
	} else {
		w.fs.op("genstore.snapshot_write", &st.snapshotTime, func() { n, err = w.f.Write(p) })
		st.snapshotBytes.Add(int64(n))
	}
	return n, err
}

func (w *countingFile) Sync() (err error) {
	st := w.fs.st
	if w.journal {
		w.fs.op("genstore.journal_sync", &st.journalSync, func() { err = w.f.Sync() })
	} else {
		w.fs.op("genstore.snapshot_sync", &st.snapshotTime, func() { err = w.f.Sync() })
	}
	st.syncs.Add(1)
	return err
}

func (w *countingFile) Close() (err error) {
	w.fs.op("genstore.close", nil, func() { err = w.f.Close() })
	return err
}
