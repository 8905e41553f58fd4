#!/usr/bin/env python3
"""Minimal kgacc-serve-v1 client (standard library only).

Each positional argument is one request: either a full JSON object, or the
shorthand `op key=value ...` (values parse as JSON when possible, else as
strings). Responses print one JSON line each; `stream-trace` responses print
the header, every round line, and the end marker.

    tools/serve_client.py --port 7607 \
        '{"op": "load-graph", "graph": "nell"}' \
        'start-campaign graph=nell design=twcs' \
        'step session=s1 rounds=5' \
        'suspend session=s1'

Used by the CI serve-smoke job to drive the daemon's suspend/resume
byte-compare; --save-state FILE writes the campaign_state object of the
last suspend response as JSON, so a later `resume` can read it back with
--load-state FILE (the object is passed as the "campaign_state" member).

Exits 1 when a response has "ok": false, and 2 without sending anything when
a request (or a --load-state file) names a JSON member twice, which the
daemon refuses too: Python's json would keep only the last copy.
"""

import argparse
import json
import socket
import sys


class DuplicateMemberError(ValueError):
    pass


def reject_duplicates(pairs):
    """object_pairs_hook: an object that names a member twice is an error."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise DuplicateMemberError("duplicate member '%s'" % key)
        obj[key] = value
    return obj


def loads(text):
    return json.loads(text, object_pairs_hook=reject_duplicates)


class ServeConnection:
    def __init__(self, host, port):
        self.sock = socket.create_connection((host, port))
        self.buffer = b""

    def read_line(self):
        while b"\n" not in self.buffer:
            chunk = self.sock.recv(4096)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.buffer += chunk
        line, self.buffer = self.buffer.split(b"\n", 1)
        return line.decode()

    def call(self, request):
        """Sends one request dict; returns the list of response lines (one,
        or header + rounds + end marker for stream-trace)."""
        self.sock.sendall((json.dumps(request) + "\n").encode())
        lines = [self.read_line()]
        header = json.loads(lines[0])
        if request.get("op") == "stream-trace" and header.get("ok"):
            for _ in range(int(header.get("rounds", 0)) + 1):
                lines.append(self.read_line())
        return lines


def parse_request(text):
    """Full JSON object, or `op key=value ...` shorthand."""
    text = text.strip()
    if text.startswith("{"):
        return loads(text)
    parts = text.split()
    request = {"op": parts[0]}
    for part in parts[1:]:
        key, _, value = part.partition("=")
        if key in request:
            raise DuplicateMemberError("duplicate member '%s'" % key)
        try:
            request[key] = loads(value)
        except json.JSONDecodeError:
            request[key] = value
    return request


def main():
    parser = argparse.ArgumentParser(
        description="Send kgacc-serve-v1 requests to a kgacc_serve daemon."
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument(
        "--save-state",
        metavar="FILE",
        help="write the campaign_state of the last suspend response",
    )
    parser.add_argument(
        "--load-state",
        metavar="FILE",
        help="for `resume` requests: read campaign_state from FILE",
    )
    parser.add_argument("requests", nargs="+", help="JSON or `op k=v ...`")
    args = parser.parse_args()

    requests = []
    try:
        for text in args.requests:
            source = text
            request = parse_request(text)
            if request.get("op") == "resume" and args.load_state:
                source = args.load_state
                with open(args.load_state) as f:
                    state = f.read()
                try:
                    request["campaign_state"] = loads(state)
                except json.JSONDecodeError:
                    # Not JSON (say, an old text blob): the daemon names what
                    # it refuses.
                    request["campaign_state"] = state
            requests.append(request)
    except DuplicateMemberError as error:
        print("serve_client.py: %s in %r; nothing sent" % (error, source),
              file=sys.stderr)
        return 2

    conn = ServeConnection(args.host, args.port)
    saved_state = None
    failed = False
    for request in requests:
        for line in conn.call(request):
            print(line)
            response = json.loads(line)
            if response.get("ok") is False:
                failed = True
            if "campaign_state" in response:
                saved_state = response["campaign_state"]
    if args.save_state and saved_state is not None:
        with open(args.save_state, "w") as f:
            json.dump(saved_state, f)
            f.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # output piped into head etc.
        sys.exit(0)
