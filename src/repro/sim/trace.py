"""Lightweight simulation tracing.

A :class:`TraceRecorder` collects (time, source, event, payload) tuples.
Recording is off unless enabled, so the hot path pays one attribute test.
Data-path tracepoints (§5.1 of the paper) are built on this.
"""


class TraceRecorder:
    """Collects trace records; can be filtered by source or event name."""

    __slots__ = ("enabled", "limit", "records", "dropped")

    def __init__(self, enabled=False, limit=None):
        self.enabled = enabled
        self.limit = limit
        self.records = []
        self.dropped = 0

    def emit(self, now, source, event, payload=None):
        if not self.enabled:
            return
        if self.limit is not None and len(self.records) >= self.limit:
            self.dropped += 1
            return
        self.records.append((now, source, event, payload))

    def clear(self):
        self.records.clear()
        self.dropped = 0

    def filter(self, source=None, event=None):
        """Records matching the given source and/or event name."""
        return [record for record in self.records
                if (source is None or record[1] == source) and (event is None or record[2] == event)]

    def count(self, source=None, event=None):
        return len(self.filter(source, event))

    def __len__(self):
        return len(self.records)
