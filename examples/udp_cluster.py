"""§3's flat file server over real UDP datagrams on localhost: a restricted
capability reads, and its write is refused across the wire.

Run:  PYTHONPATH=src python examples/udp_cluster.py
"""

from repro import FlatFileClient, FlatFileServer, PermissionDenied
from repro.net.sockets import SocketNode

with SocketNode() as server, SocketNode() as client:
    files = FlatFileServer(server).start()
    client.connect(server.address)  # no broadcast segment to LOCATE on
    alice = FlatFileClient(client, files.put_port, timeout=5.0,
                           expect_signature=files.signature_image)
    read_only = alice.restrict(alice.create(b"real datagrams"), 0x01)
    print("read with the restricted capability:", alice.read(read_only))
    try:
        alice.write(read_only, 0, b"nope")
    except PermissionDenied as refused:
        print("write refused: %s\nOK" % refused)
