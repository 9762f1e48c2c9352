# Runs holdcsim_cli on config files that each hold one user error and
# checks that the CLI exits 2 with the diagnostic on stderr, instead
# of aborting.
#
#   cmake -DCLI=<holdcsim_cli> -DWORK_DIR=<scratch dir> \
#         -P tests/cli_config_error.cmake

function(expect_config_error name ini message)
    set(path "${WORK_DIR}/${name}.ini")
    file(WRITE "${path}" "${ini}")
    execute_process(COMMAND "${CLI}" "${path}"
        RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT rc STREQUAL "2")
        message(FATAL_ERROR
            "${name}: exit status '${rc}', expected 2\nstderr:\n${err}")
    endif()
    string(FIND "${err}" "${message}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR
            "${name}: stderr lacks '${message}':\n${err}")
    endif()
    message(STATUS "${name}: exit 2, ${message}")
endfunction()

file(MAKE_DIRECTORY "${WORK_DIR}")
expect_config_error(zero_servers
    "[datacenter]\nservers = 0\n" "at least one server")
expect_config_error(bad_net_model
    "[network]\nfabric = star\nmodel = bogus\n"
    "unknown network model 'bogus'")
