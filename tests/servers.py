"""A resource-manager server that counts what it is sent."""
import collections

from qoffload.resman import ResourceManagerServer


def counting_server(**kwargs):
    """A started server that counts the requests it is sent, by kind, the
    jobs that `SubmitJob` requests carry in `jobs`, under "jobs", and the
    connections it accepts, under "connections"."""
    srv = ResourceManagerServer(**kwargs)
    counts = collections.Counter()
    replies, serve_connection = srv._replies, srv._serve_connection

    def counted_replies(msg):
        counts[msg["kind"]] += 1
        if msg["kind"] == "SubmitJob" and isinstance(msg.get("jobs"), list):
            counts["jobs"] += len(msg["jobs"])
        return replies(msg)

    def counted_connection(conn):
        counts["connections"] += 1
        serve_connection(conn)

    srv._replies = counted_replies
    srv._serve_connection = counted_connection
    return srv.start(), counts
