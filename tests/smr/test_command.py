"""Unit tests for commands and replies."""

from repro.ordering import GroupDirectory
from repro.smr import BaseClient, Command, CommandType, Reply, ReplyStatus

from tests.conftest import make_network


def make_client(env, name="c0"):
    return BaseClient(env, make_network(env), GroupDirectory({}), name)


class TestCommand:
    def test_auto_cid_unique(self, env):
        client = make_client(env)
        a = Command(op="get")
        b = Command(op="get")
        assert a.cid == b.cid == ""
        client.claim_cid(a)
        client.claim_cid(b)
        assert a.cid and b.cid and a.cid != b.cid

    def test_explicit_cid_kept(self, env):
        command = Command(op="get", cid="custom")
        make_client(env).claim_cid(command)
        assert command.cid == "custom"

    def test_variables_normalised_to_tuple(self):
        command = Command(op="get", variables=["a", "b"])
        assert command.variables == ("a", "b")

    def test_default_type_is_access(self):
        assert Command(op="x").ctype is CommandType.ACCESS

    def test_payload_size_grows_with_variables(self):
        small = Command(op="x", variables=("a",))
        large = Command(op="x", variables=tuple(f"v{i}" for i in range(20)))
        assert large.payload_size() > small.payload_size()

    def test_command_id_embeds_origin(self, env):
        assert env.ids.new("cmd", "client-7") == "cmd-client-7-0"
        command = Command(op="get", client="client-7")
        make_client(env).claim_cid(command)
        assert command.cid == "cmd-client-7-1"


class TestReply:
    def test_fields(self):
        reply = Reply(cid="c1", status=ReplyStatus.OK, value=3,
                      sender="s", partition="p0")
        assert reply.status is ReplyStatus.OK
        assert reply.partition == "p0"

    def test_status_enum_values(self):
        assert ReplyStatus("retry") is ReplyStatus.RETRY
